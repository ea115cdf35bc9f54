package cluster

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/balance"
	"voltage/internal/comm"
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

// broadcastInput ships the request's input features to the given workers.
func broadcastInput(ctx context.Context, p comm.Peer, ex *comm.Exchange, x *tensor.Matrix, ranks []int) error {
	blob := ex.Encode(x)
	for _, r := range ranks {
		if err := p.Send(ctx, r, blob); err != nil {
			return err
		}
	}
	return nil
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
	return broadcastInput(ctx, p, ex, req.x, []int{0})
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
// All-Gather per layer (Algorithm 2).
type voltageRunner struct{}

func (voltageRunner) name() string    { return "voltage" }
func (voltageRunner) exclusive() bool { return false }

func (voltageRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return broadcastInput(ctx, p, ex, req.x, req.liveRanks(c))
}

func (voltageRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	// Collect final-layer partitions from every live worker (Algorithm 2,
	// line 8) and assemble by rank order. Assembly is driven by the
	// received row counts rather than the static scheme so dynamic
	// per-layer re-balancing needs no extra coordination.
	out, err := c.collectPartitions(ctx, p, ex, req.liveRanks(c), req.x.Rows())
	if err != nil {
		return err
	}
	req.output = out
	return nil
}

// worker is Algorithm 2, lines 4–15, for one device. Ranks outside the
// request's live set (excluded from a degraded attempt) idle through it.
func (voltageRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	me := req.liveIndex(c, rank)
	if me < 0 {
		return nil // idle: this rank is excluded from the degraded attempt
	}
	live := req.liveRanks(c)
	term := c.terminalRank()
	blob, err := p.Recv(ctx, term)
	if err != nil {
		return err
	}
	pool := ex.Pool()
	x, _, err := tensor.DecodePooled(pool, blob)
	if err != nil {
		return err
	}
	comm.ReleaseBuffer(blob)
	ranges, err := req.partitionScheme(c).Ranges(x.Rows())
	if err != nil {
		return err
	}
	group, err := c.workerGroup(p, live)
	if err != nil {
		return err
	}
	var tracker *balance.Tracker
	if c.opts.DynamicScheme {
		if tracker, err = balance.NewTracker(len(live), 0); err != nil {
			return err
		}
	}
	m := c.models[rank]
	for li, layer := range m.Layers {
		start := time.Now()
		part, _, err := layer.ForwardPartition(x, ranges[me])
		if err != nil {
			return fmt.Errorf("layer %d: %w", li, err)
		}
		if pl := ranges[me].Len(); pl > 0 {
			cost, err := layer.Cost(x.Rows(), pl)
			if err != nil {
				return err
			}
			if err := c.paceRank(ctx, rank, start, cost); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		c.recordPhase(req, rank, li, trace.PhaseCompute, elapsed)
		if li == len(m.Layers)-1 {
			// Final layer: ship the partition to the terminal.
			if err := p.Send(ctx, term, ex.Encode(part)); err != nil {
				return err
			}
			pool.Put(part)
			pool.Put(x)
			return nil
		}
		commStart := time.Now()
		var next *tensor.Matrix
		if c.opts.QuantizedComm {
			next, err = comm.AllGatherMatrixQ(ctx, group, part, ranges, c.opts.RingAllGather)
		} else {
			next, err = ex.AllGatherMatrix(ctx, group, part, ranges, c.opts.RingAllGather)
		}
		if err != nil {
			return fmt.Errorf("layer %d allgather: %w", li, err)
		}
		c.recordPhase(req, rank, li, trace.PhaseComm, time.Since(commStart))
		// The gather copied the local partition into the assembled matrix
		// and ForwardPartition never retains its input, so both the
		// partition and the previous activation recycle here — the per-layer
		// steady state allocates nothing.
		pool.Put(part)
		pool.Put(x)
		x = next
		if tracker != nil {
			ranges, err = c.rebalance(ctx, group, tracker, ranges[me], elapsed, x.Rows())
			if err != nil {
				return fmt.Errorf("layer %d rebalance: %w", li, err)
			}
		}
	}
	return nil
}

// ------------------------------------------------------- tensor parallel

// tpRunner is the Megatron-style baseline with two All-Reduces per layer.
type tpRunner struct{}

func (tpRunner) name() string    { return "tensor-parallel" }
func (tpRunner) exclusive() bool { return false }

func (tpRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return broadcastInput(ctx, p, ex, req.x, c.allRanks())
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
