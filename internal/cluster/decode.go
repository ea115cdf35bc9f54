package cluster

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/trace"
)

// Distributed KV-cached generation. The paper splits a layer by position
// because positions are independent given the gathered input; in KV-cached
// decode the independent unit is the sequence, so the two phases are
// distributed along different axes:
//
//   - prefill runs under Algorithm 2 (position-wise partitions + a gather
//     per layer; package positionwise) over every live rank, cut down to
//     what generation reads (positionwise.Read) and, the model being causal,
//     to what each slice attends to — the rank holding slice j is sent the
//     slices before it and no other: the prefix travels as token ids; the
//     sequence's owner rank — chosen by the terminal at join, and given the
//     last slice, the one that sees every position — keeps the K/V its own
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
// serving loop's goroutine, between two rounds on the mesh, so it must not
// block indefinitely. No call to it begins after
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
	req := &request{
		input: input{ids: append([]int(nil), prompt...)},
		gen:   &generation{steps: steps, onToken: onToken, res: &GenerateResult{}},
	}
	if err := c.enqueue(ctx, req); err != nil {
		return nil, err
	}
	if err := c.wait(ctx, req); err != nil {
		select {
		case <-req.done: // the sequence's own outcome, reported below
		default:
			// Shutdown, or the caller gave up: the sequence leaves the batch
			// at its next step boundary; the caller need not wait for that
			// housekeeping — only for a token callback already in flight.
			req.gen.closeStream()
			return nil, err
		}
	}
	// The loop commits the sequence's accumulated accounting (tokens so far,
	// attempts, degradation, batch wait, decode time) into res before
	// resolving it, so a failed stream still reports what it measured —
	// callers get the partial result alongside the error. The cancel/shutdown
	// path above returns nil instead: there the loop may still be writing the
	// result concurrently.
	return req.gen.res, req.err
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
