package cluster

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// Distributed KV-cached generation. The paper splits a layer by position
// because positions are independent given the gathered input; in KV-cached
// decode the independent unit is the sequence, so the two phases are
// distributed along different axes:
//
//   - prefill runs under Algorithm 2 (position-wise partitions +
//     All-Gather) over every live rank, cut down to what generation reads
//     (prefillWork): the prefix travels as token ids; the sequence's owner
//     rank — chosen by the terminal at join — keeps the K/V its own
//     attention materialises over each complete layer input as the cache,
//     which so costs no extra communication or projection and exists on
//     exactly one device; and the last layer is the newest row alone;
//   - each decode step moves only the token id to the owner and one
//     F-vector back: communication per generated token drops from
//     L·(K−1)·N·F/K floats to F floats, with no per-layer collective.
//
// Generation is continuously batched (batch.go): the sequences a rank owns
// fuse their decode steps into one matmul per layer per step, and the K
// owners advance their shares of the batch in parallel. A lone request runs
// as the degenerate batch of one on one owner, bit-identical to a solo run.

// GenerateResult reports a distributed generation run.
type GenerateResult struct {
	// Tokens is the prompt plus the generated continuation.
	Tokens []int
	// PrefillLatency is the terminal-observed prompt processing time.
	PrefillLatency time.Duration
	// DecodeLatency is the terminal-observed total decoding time. Under
	// continuous batching it spans the sequence's residency in the shared
	// batch, fused steps included.
	DecodeLatency time.Duration
	// BatchWait is how long the request waited before joining the decode
	// batch (queue-vs-fuse attribution; also a PhaseBatchWait trace span).
	BatchWait time.Duration
	// PerDevice holds each device's traffic while this sequence was
	// resident (workers first, terminal last). Fused steps move traffic on
	// behalf of every co-batched sequence, so overlapping requests share
	// these bytes.
	PerDevice []comm.Stats
	// Attempts counts how many times this sequence was dispatched into a
	// batch round (1 = never interrupted). A mid-batch device failure parks
	// the sequence and re-prefills it on the survivors, costing one attempt
	// from the Options.MaxRetries budget.
	Attempts int
	// Degraded reports that the sequence was resident on fewer than K
	// workers at some point — it rode out a fault on a re-sliced partition
	// or on the terminal's local fallback. Outputs are still exact.
	Degraded bool
	// Trace holds the request's span trace when Options.TraceRequests is
	// set (nil otherwise).
	Trace *trace.RequestTrace
}

// GenerateVoltage decodes steps tokens greedily: distributed prefill
// (Voltage, Algorithm 2) followed by KV-cached decode steps. The model
// must be a decoder.
func (c *Cluster) GenerateVoltage(ctx context.Context, prompt []int, steps int) (*GenerateResult, error) {
	return c.GenerateVoltageStream(ctx, prompt, steps, nil)
}

// GenerateVoltageStream is GenerateVoltage with incremental delivery:
// onToken (when non-nil) is called with each generated token id as soon as
// it is decoded, before the next decode step is issued — the serving
// gateway streams these straight to the client. The callback runs on the
// serving runtime's collector goroutine while the batch owns the mesh, so
// it must not block indefinitely. No call to it begins after
// GenerateVoltageStream has returned, and every call made happens before
// the return: a caller may touch what the callback touched without further
// synchronisation, whichever way the stream ended.
//
// The sequence executes inside the shared continuous batch: it joins at
// the next step boundary (immediately when the mesh is idle), fuses its
// decode steps with whatever else is live, and leaves when done. Outputs
// are bit-identical to a solo run regardless of co-batched traffic.
func (c *Cluster) GenerateVoltageStream(ctx context.Context, prompt []int, steps int, onToken func(tok int)) (*GenerateResult, error) {
	if c.cfg.Kind != model.KindDecoder {
		return nil, fmt.Errorf("cluster: %s is not a decoder", c.cfg.Name)
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("cluster: empty prompt")
	}
	if steps < 0 {
		return nil, fmt.Errorf("cluster: negative steps %d", steps)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seq := &batchSeq{
		ctx:     ctx,
		prompt:  append([]int(nil), prompt...),
		steps:   steps,
		onToken: onToken,
		enq:     time.Now(),
		res:     &GenerateResult{},
		done:    make(chan struct{}),
	}
	if c.opts.TraceRequests {
		seq.trace = trace.NewRequestTrace()
		seq.res.Trace = seq.trace
	}
	if err := c.batcher.add(seq); err != nil {
		return nil, err
	}
	select {
	case <-seq.done:
	case <-c.serveCtx.Done():
		select {
		case <-seq.done: // resolution raced the shutdown; prefer it
		default:
			seq.closeStream()
			return nil, errServingStopped
		}
	case <-ctx.Done():
		// The sequence leaves the batch at its next step boundary; the
		// caller need not wait for that housekeeping — only for a token
		// callback already in flight.
		seq.closeStream()
		return nil, ctx.Err()
	}
	if seq.err != nil {
		// The batcher commits the sequence's accumulated accounting
		// (tokens so far, attempts, degradation, batch wait, decode time)
		// into res before resolving it, so a failed stream still reports
		// what it measured — callers get the partial result alongside the
		// error. The cancel/shutdown paths above return nil instead: there
		// the batcher may still be writing the result concurrently.
		return seq.res, seq.err
	}
	return seq.res, nil
}

// prefillWork is the rows one rank computes at one layer of a join prefill
// over n positions, and the Γ it is paced for. Up to the last layer that is
// its slice mine: a non-owner in Algorithm 1's selected order, the owner in
// the naive association, whose K = x·W_K, V = x·W_V it keeps as the layer's
// cache — Theorem 2's reordering saves exactly those two products, so it only
// pays where they have no other use. Of the last layer nothing is read but
// the newest row, which the owner computes (P = 1) next to its cache.
func prefillWork(layer *model.Layer, last bool, n int, mine partition.Range, owner bool) (partition.Range, int64, error) {
	if last {
		mine = partition.Range{From: n, To: n}
		if owner {
			mine.From = n - 1
		}
	}
	cost := layer.Cost
	if owner {
		cost = layer.CachedCost
	} else if mine.Empty() {
		return mine, 0, nil
	}
	g, err := cost(n, mine.Len())
	return mine, g, err
}

// prefillWorker runs the worker side of one sequence's join prefill. Every
// rank embeds the token ids the terminal sent (charged with layer 0) and runs
// Algorithm 2 up to the last layer over the row ranges the terminal computed
// at join (one per live rank, in live-set order — so a degraded round,
// re-sliced over the survivors after a device failure, prefills over exactly
// its live ranks, and a scheme installed mid-batch reaches the next joiner
// without touching live sequences). The owner answers the terminal with the
// newest position's hidden row and returns the decode state; every other rank
// answers with a 0-row partition — the terminal hears from every live rank —
// and returns nil. (Activations go to the garbage collector, not the matrix
// pool: nothing aliases them any more, but the pool keeps one class per N×F
// and prompt lengths rarely repeat — recycling them measured +3–4 MB of peak
// RSS on both generate workloads for no throughput.)
func (c *Cluster) prefillWorker(ctx context.Context, p comm.Peer, ex *comm.Exchange, rank int, req *request, ranges []partition.Range, owner bool) (*model.DecodeState, error) {
	term := c.terminalRank()
	m := c.models[rank]
	me := req.liveIndex(c, rank)
	payload, err := p.Recv(ctx, term)
	if err != nil {
		return nil, err
	}
	n := ranges[len(ranges)-1].To
	ids, err := parsePrefillTokens(payload, n, m.Embed)
	if err != nil {
		return nil, err
	}
	comm.ReleaseBuffer(payload)
	group, err := c.workerGroup(p, req.liveRanks(c))
	if err != nil {
		return nil, err
	}
	start, cost := time.Now(), flopcount.EmbedCost(n, m.Cfg.F)
	x, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		return nil, err
	}
	var state *model.DecodeState
	if owner {
		state = &model.DecodeState{Layers: make([]*model.LayerState, len(m.Layers)), Pos: n}
	}
	for li, layer := range m.Layers {
		last := li == len(m.Layers)-1
		r, layerCost, err := prefillWork(layer, last, n, ranges[me], owner)
		if err != nil {
			return nil, err
		}
		var part *tensor.Matrix
		if owner {
			part, state.Layers[li], err = layer.ForwardPartitionCached(x, r)
		} else {
			part, _, err = layer.ForwardPartition(x, r)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", li, err)
		}
		if err := c.paceRank(ctx, rank, start, cost+layerCost); err != nil {
			return nil, err
		}
		c.recordPhase(req, rank, li, trace.PhaseCompute, time.Since(start))
		if last {
			return state, p.Send(ctx, term, ex.Encode(part))
		}
		commStart := time.Now()
		if x, err = comm.AllGatherMatrix(ctx, group, part, ranges, c.opts.RingAllGather); err != nil {
			return nil, fmt.Errorf("layer %d allgather: %w", li, err)
		}
		c.recordPhase(req, rank, li, trace.PhaseComm, time.Since(commStart))
		start, cost = time.Now(), 0
	}
	return state, nil
}

// decodeStepCost is the analytic Γ of one rank's fused KV-cached decode
// step over the whole stack, summed across its sequences' cache lengths ts
// (each t is a sequence's position after its token was appended): per layer
// and sequence, H heads at 3·F·FH + 2·t·FH each, the WO projection, the FFN
// and the layer norms. Fusing the batch does not change the MAC count —
// every projection row is one sequence's — so the fused step's Γ is exactly
// the sum of the solo steps it replaces, and the scheduler's per-sequence
// shed-before-service estimate stays the solo Γ rather than B times it.
func decodeStepCost(m *model.Model, ts ...int) int64 {
	cfg := m.Cfg
	f, fh, h, dff := int64(cfg.F), int64(cfg.FH()), int64(cfg.Heads), int64(cfg.FFN)
	var total int64
	for _, t := range ts {
		perLayer := h*(3*f*fh+2*int64(t)*fh) + f*f + 2*f*dff + 4*f
		total += perLayer * int64(cfg.Layers)
	}
	return total
}
