package cluster

import (
	"context"
	"time"

	"voltage/internal/comm"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// strategyRunner is one request kind's execution protocol, split along the
// serving runtime's three roles:
//
//   - admit: the terminal's request-injection side (input broadcast), run
//     by the dispatcher so the next request can enter the mesh while
//     earlier ones are still computing;
//   - collect: the terminal's result side (drain partitions, assemble), run
//     by the collector;
//   - worker: one device's compute loop, run by that rank's persistent
//     worker goroutine.
//
// A runner whose terminal side interleaves sends and receives (KV-cached
// generation) reports exclusive() == true: the dispatcher runs its whole
// terminal protocol in the collector and admits nothing else until it
// finishes.
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

// voltageRunner is the paper's position-wise partitioning with one
// All-Gather per layer (Algorithm 2); the protocol itself is package
// positionwise.
type voltageRunner struct{}

func (voltageRunner) name() string    { return "voltage" }
func (voltageRunner) exclusive() bool { return false }

func (voltageRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	var frame []byte
	if req.ids != nil {
		frame = positionwise.TokenFrame(req.ids)
	} else {
		frame = ex.Encode(req.x)
	}
	return positionwise.Scatter(ctx, p, req.liveRanks(c), frame)
}

func (voltageRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	ranges, read, err := req.plan(c, req.rows())
	if err != nil {
		return err
	}
	req.output, err = positionwise.Assemble(ctx, p, ex.Pool(), req.liveRanks(c), read.Replies(ranges))
	return err
}

// worker runs one device's classify pass. The input's form — token ids or the
// embedded matrix — is the request's; its length is the frame's. Ranks outside
// the request's live set (excluded from a degraded attempt) idle through it.
func (voltageRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	if req.liveIndex(c, rank) < 0 {
		return nil // idle: this rank is excluded from the degraded attempt
	}
	dev, err := c.device(p, ex, rank, req)
	if err != nil {
		return err
	}
	blob, err := p.Recv(ctx, c.terminalRank())
	if err != nil {
		return err
	}
	if req.ids != nil {
		ids, err := parsePrefillTokens(blob, len(blob)/4, c.models[rank].Embed)
		if err != nil {
			return err
		}
		comm.ReleaseBuffer(blob)
		ranges, read, err := req.plan(c, len(ids))
		if err != nil {
			return err
		}
		_, err = dev.RunTokens(ctx, ids, ranges, read)
		return err
	}
	x, _, err := tensor.DecodePooled(ex.Pool(), blob)
	if err != nil {
		return err
	}
	comm.ReleaseBuffer(blob)
	ranges, read, err := req.plan(c, x.Rows())
	if err != nil {
		return err
	}
	_, err = dev.Run(ctx, x, ranges, read)
	return err
}

// plan is how a request over n positions is sliced over its live ranks and
// what its caller reads of it: every row, or the classifier's pooled row at
// the live rank whose slice holds it. Terminal and workers derive the same
// plan from n alone.
func (req *request) plan(c *Cluster, n int) ([]partition.Range, positionwise.Read, error) {
	ranges, err := req.partitionScheme(c).Ranges(n)
	if err != nil || !req.pooled() {
		return ranges, positionwise.AllRows, err
	}
	return ranges, positionwise.Pooled(c.models[0].Classifier, ranges), nil
}

// device is worker rank's side of the position-wise protocol for one request,
// over the request's live ranks — the one place a pass is paced at the rank's
// emulated rate and its compute and synchronisation spans are reported.
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
