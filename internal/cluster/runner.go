package cluster

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/comm"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// strategyRunner is one distribution strategy's execution protocol, split
// along the serving runtime's three roles:
//
//   - admit: the terminal's request-injection side (input broadcast), run
//     by the dispatcher so the next request can enter the mesh while
//     earlier ones are still computing;
//   - collect: the terminal's result side (drain partitions, assemble), run
//     by the collector;
//   - worker: one device's compute loop, run by that rank's persistent
//     worker goroutine.
//
// Runners whose terminal side interleaves sends and receives (KV-cached
// generation, the pipeline baseline) report exclusive() == true: the
// dispatcher runs their whole terminal protocol in the collector and admits
// nothing else until they finish.
//
// All peers handed to a runner are per-request stat scopes; every byte a
// runner moves is attributed to exactly that request.
type strategyRunner interface {
	name() string
	exclusive() bool
	admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error
	collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error
	worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error
}

// runnerFor resolves a strategy to its runner.
func runnerFor(s Strategy) (strategyRunner, error) {
	switch s {
	case StrategySingle:
		return singleRunner{}, nil
	case StrategyVoltage:
		return voltageRunner{}, nil
	case StrategyTensorParallel:
		return tpRunner{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown strategy %v", s)
	}
}

// recvOutput receives and decodes the final matrix reported by one worker.
func recvOutput(ctx context.Context, p comm.Peer, from int) (*tensor.Matrix, error) {
	got, err := p.Recv(ctx, from)
	if err != nil {
		return nil, err
	}
	out, _, err := tensor.Decode(got)
	if err != nil {
		return nil, err
	}
	comm.ReleaseBuffer(got)
	return out, nil
}

// ---------------------------------------------------------------- single

// singleRunner runs the whole model on worker 0 (the paper's single-device
// baseline).
type singleRunner struct{}

func (singleRunner) name() string    { return "single" }
func (singleRunner) exclusive() bool { return false }

func (singleRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return positionwise.Scatter(ctx, p, []int{0}, ex.Encode(req.x))
}

func (singleRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	out, err := recvOutput(ctx, p, 0)
	if err != nil {
		return err
	}
	req.output = out
	return nil
}

func (singleRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	if rank != 0 {
		return nil // idle
	}
	term := c.terminalRank()
	blob, err := p.Recv(ctx, term)
	if err != nil {
		return err
	}
	pool := ex.Pool()
	cur, _, err := tensor.DecodePooled(pool, blob)
	if err != nil {
		return err
	}
	comm.ReleaseBuffer(blob)
	for li, layer := range c.models[0].Layers {
		start := time.Now()
		out, err := layer.Forward(cur)
		if err != nil {
			return fmt.Errorf("layer %d: %w", li, err)
		}
		cost, err := layer.Cost(cur.Rows(), cur.Rows())
		if err != nil {
			return err
		}
		if err := c.paceRank(ctx, 0, start, cost); err != nil {
			return err
		}
		c.recordPhase(req, 0, li, trace.PhaseCompute, time.Since(start))
		// Forward never retains its input, so the previous activation can
		// back a later layer or request.
		pool.Put(cur)
		cur = out
	}
	if err := p.Send(ctx, term, ex.Encode(cur)); err != nil {
		return err
	}
	pool.Put(cur)
	return nil
}

// --------------------------------------------------------------- voltage

// voltageRunner is the paper's position-wise partitioning with one
// All-Gather per layer (Algorithm 2); the protocol itself is package
// positionwise.
type voltageRunner struct{}

func (voltageRunner) name() string    { return "voltage" }
func (voltageRunner) exclusive() bool { return false }

func (voltageRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return positionwise.Scatter(ctx, p, req.liveRanks(c), ex.Encode(req.x))
}

func (voltageRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	ranges, err := req.partitionScheme(c).Ranges(req.x.Rows())
	if err != nil {
		return err
	}
	req.output, err = positionwise.Assemble(ctx, p, ex.Pool(), req.liveRanks(c), ranges)
	return err
}

// worker runs one device's classify pass. Ranks outside the request's live
// set (excluded from a degraded attempt) idle through it.
func (voltageRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	if req.liveIndex(c, rank) < 0 {
		return nil // idle: this rank is excluded from the degraded attempt
	}
	blob, err := p.Recv(ctx, c.terminalRank())
	if err != nil {
		return err
	}
	x, _, err := tensor.DecodePooled(ex.Pool(), blob)
	if err != nil {
		return err
	}
	comm.ReleaseBuffer(blob)
	ranges, err := req.partitionScheme(c).Ranges(x.Rows())
	if err != nil {
		return err
	}
	dev, err := c.device(p, ex, rank, req)
	if err != nil {
		return err
	}
	if c.opts.QuantizedComm {
		dev.Gather = positionwise.Quantized
	}
	return dev.Classify(ctx, x, ranges)
}

// device is worker rank's side of the position-wise protocol for one request,
// over the request's live ranks — the one place a pass is paced at the rank's
// emulated rate and its compute and All-Gather spans are reported.
func (c *Cluster) device(p comm.Peer, ex *comm.Exchange, rank int, req *request) (*positionwise.Device, error) {
	group, err := c.workerGroup(p, req.liveRanks(c))
	if err != nil {
		return nil, err
	}
	return &positionwise.Device{
		Model: c.models[rank], Peer: p, Terminal: c.terminalRank(), Group: group, Ex: ex,
		Pace: func(ctx context.Context, layer int, start time.Time, flops int64) error {
			if err := c.paceRank(ctx, rank, start, flops); err != nil {
				return err
			}
			c.recordPhase(req, rank, layer, trace.PhaseCompute, time.Since(start))
			return nil
		},
		OnComm: func(layer int, d time.Duration) {
			c.recordPhase(req, rank, layer, trace.PhaseComm, d)
		},
	}, nil
}

// ------------------------------------------------------- tensor parallel

// tpRunner is the Megatron-style baseline with two All-Reduces per layer.
type tpRunner struct{}

func (tpRunner) name() string    { return "tensor-parallel" }
func (tpRunner) exclusive() bool { return false }

func (tpRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return positionwise.Scatter(ctx, p, c.allRanks(), ex.Encode(req.x))
}

func (tpRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	// Every worker holds the full output; worker 0 reports it.
	out, err := recvOutput(ctx, p, 0)
	if err != nil {
		return err
	}
	req.output = out
	return nil
}

func (tpRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	term := c.terminalRank()
	blob, err := p.Recv(ctx, term)
	if err != nil {
		return err
	}
	cur, _, err := tensor.DecodePooled(ex.Pool(), blob)
	if err != nil {
		return err
	}
	comm.ReleaseBuffer(blob)
	group, err := c.workerGroup(p, c.allRanks())
	if err != nil {
		return err
	}
	for li, shard := range c.shards[rank] {
		shard.Pace = func(ctx context.Context, start time.Time, flops int64) error {
			if err := c.paceRank(ctx, rank, start, flops); err != nil {
				return err
			}
			c.recordPhase(req, rank, li, trace.PhaseCompute, time.Since(start))
			return nil
		}
		shard.OnComm = func(d time.Duration) {
			c.recordPhase(req, rank, li, trace.PhaseComm, d)
		}
		// Ring All-Reduce, matching the Megatron figures the paper cites.
		out, err := shard.Forward(ctx, group, cur, true)
		if err != nil {
			return fmt.Errorf("layer %d: %w", li, err)
		}
		cur = out
	}
	if rank == 0 {
		return p.Send(ctx, term, ex.Encode(cur))
	}
	return nil
}
