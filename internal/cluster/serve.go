package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// The serving runtime is one loop (batch.go): the terminal goroutine admits
// pending requests at boundaries, up to one pass per serving rank on the mesh
// at once, and every worker rank runs one frame switch. A request is a pass —
// an input plus what its caller reads of the last layer (positionwise.Read):
// every row for Submit, the classifier's pooled row for SubmitTokens and
// SubmitPooled, the newest row with the owner's K/V kept for a generate,
// which then stays live for decode steps. A worker runs passes one after the
// other, so a pass's traffic is the difference of each worker's counters
// across its run of it, and of the terminal's across its scatter and its
// collect.
//
// This file is the request's side of that: the handle, the submit calls, and
// the round — the stretch of the loop's life over which the set of serving
// ranks is fixed, whose end (a fault, a changed plan, shutdown) stops the
// workers, waits for them and flushes the links.

// errServingStopped reports submission to (or abandonment by) a closed
// cluster.
var errServingStopped = errors.New("cluster: serving stopped")

// defaultQueueDepth bounds the pending queue when Options.QueueDepth is 0.
const defaultQueueDepth = 64

// request is one caller-visible unit of work: a classify (gen == nil), which
// resolves when its pass returns, or a generate, which joins the decode batch
// with its pass and resolves when it leaves. The submitter owns it until add,
// the batcher (under mu) while it is pending, the terminal loop while it is on
// the mesh, and finish hands it back to the caller exactly once.
type request struct {
	id    uint64
	ctx   context.Context // the caller's: once it ends the request leaves at the next boundary
	enq   time.Time
	trace *trace.RequestTrace // per-layer spans when Options.TraceRequests is set

	input
	gen *generation

	// queued marks a request holding one slot of the pending queue's bound
	// (a parked request re-enters without one).
	queued bool

	// Recovery state. attempts counts the passes dispatched for this request;
	// parkedAt is non-zero while it waits in pending after surviving a failed
	// round; resident is set from its pass's scatter until accumulate folds
	// the residency into its result; joinStats is the mesh's counters when a
	// generate joined the batch.
	attempts  int
	parkedAt  time.Time
	resident  bool
	joinStats []comm.Stats

	output    *tensor.Matrix
	latency   time.Duration
	perDevice []comm.Stats // index = mesh rank, the terminal last
	live      []int        // ranks of the final attempt: nil = all, empty = the terminal alone
	degraded  bool

	err  error
	done chan struct{}
}

// input is what a request's pass carries, in one of three forms: token ids
// (each device embeds them itself; a classify reads the classifier's pooled
// row alone, a generate's ids are its prompt), the embedded matrix x read at
// the pooled row (pooledX), or x with every row read.
type input struct {
	x       *tensor.Matrix
	ids     []int
	pooledX bool // x alone: ids are always read at the pooled row
}

// pooled reports whether a classify's caller reads the pooled row alone.
func (in input) pooled() bool { return in.ids != nil || in.pooledX }

// kind names the request for the flight recorder.
func (req *request) kind() string {
	if req.gen != nil {
		return "generate"
	}
	return "classify"
}

// finish hands the request back to its caller.
func (req *request) finish(err error) {
	req.err = err
	close(req.done)
}

// Pending is a submitted request's handle.
type Pending struct {
	c   *Cluster
	req *request
}

// ID returns the request's cluster-unique id.
func (p *Pending) ID() uint64 { return p.req.id }

// Done is closed when the request has completed (successfully or not).
func (p *Pending) Done() <-chan struct{} { return p.req.done }

// wait blocks until req resolves, the cluster closes, or ctx ends.
func (c *Cluster) wait(ctx context.Context, req *request) error {
	select {
	case <-req.done:
		return req.err
	case <-c.serveCtx.Done():
		select {
		case <-req.done: // resolution raced the shutdown; prefer it
			return req.err
		default:
			return errServingStopped
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until the request completes and returns its result. ctx bounds
// the wait, not the request.
func (p *Pending) Wait(ctx context.Context) (*Result, error) {
	if err := p.c.wait(ctx, p.req); err != nil {
		return nil, err
	}
	req := p.req
	return &Result{
		ID:        req.id,
		Output:    req.output,
		Latency:   req.latency,
		PerDevice: req.perDevice,
		Strategy:  StrategyVoltage,
		Attempts:  req.attempts,
		Degraded:  req.degraded,
		Live:      req.live,
		Trace:     req.trace,
	}, nil
}

// Serve starts the serving loop. It is idempotent and is called implicitly by
// the first request; a cluster that never serves never spawns it.
func (c *Cluster) Serve() {
	c.serveOnce.Do(func() {
		c.flight.Eventf("serving", -1, "serving runtime started: %d workers + terminal, max batch %d",
			c.k, c.maxBatch())
		go c.batcher.run()
	})
}

// Submit admits one inference request — the paper's pass: x scattered, every
// one of its N rows back in Result.Output — and returns immediately with its
// handle. Requests enter the mesh in admission order, up to one pass per
// serving rank on it at once.
func (c *Cluster) Submit(ctx context.Context, strategy Strategy, x *tensor.Matrix) (*Pending, error) {
	return c.submitInput(ctx, strategy, input{x: x})
}

// SubmitTokens admits one token classification: the pass does only what the
// classifier reads. Token ids travel instead of the embedding, every device
// embeds them itself, and the last layer is the pooled row alone, computed on
// the rank whose slice holds it — Result.Output is that row, 1×F.
func (c *Cluster) SubmitTokens(ctx context.Context, strategy Strategy, ids []int) (*Pending, error) {
	if err := c.cfg.CheckTokens(ids); err != nil {
		return nil, err
	}
	// The ids are read again when the pass enters the mesh and by every
	// retry: keep a copy.
	return c.submitInput(ctx, strategy, input{ids: append([]int(nil), ids...)})
}

// SubmitPooled is SubmitTokens for an input only the terminal can embed (an
// image's patches): x is scattered as in Submit, the last layer reduced to the
// pooled row as in SubmitTokens.
func (c *Cluster) SubmitPooled(ctx context.Context, strategy Strategy, x *tensor.Matrix) (*Pending, error) {
	return c.submitInput(ctx, strategy, input{x: x, pooledX: true})
}

func (c *Cluster) submitInput(ctx context.Context, strategy Strategy, in input) (*Pending, error) {
	if err := strategy.Served(); err != nil {
		return nil, err
	}
	if in.x == nil && in.ids == nil {
		return nil, fmt.Errorf("cluster: nil input")
	}
	req := &request{input: in}
	if err := c.enqueue(ctx, req); err != nil {
		return nil, err
	}
	return &Pending{c: c, req: req}, nil
}

// enqueue completes a request's bookkeeping and hands it to the loop. It
// blocks — or fails ctx — while Options.QueueDepth requests are pending.
func (c *Cluster) enqueue(ctx context.Context, req *request) error {
	c.Serve()
	req.ctx, req.enq, req.done = ctx, time.Now(), make(chan struct{})
	if c.opts.TraceRequests {
		req.trace = trace.NewRequestTrace()
		if req.gen != nil {
			req.gen.res.Trace = req.trace
		}
	}
	return c.batcher.add(req)
}

// round is one stretch of the loop over a fixed set of worker ranks: each of
// them runs Cluster.worker until the round ends.
type round struct {
	ranks []int // the worker ranks serving it, ascending
	live  []int // ranks when they are a subset of the mesh: a degraded round (nil = all k)

	// ctx governs every role of the round. idle is the context a worker owning
	// no sequence waits for its next frame under: exempt from the per-op
	// watchdog (silence is not a fault there) and released by every abort —
	// including the ones that keep ctx alive for the blame vote, whose idle
	// ranks no watchdog would otherwise release.
	ctx      context.Context
	cancel   context.CancelFunc
	idle     context.Context
	stopIdle context.CancelFunc
	// votes keeps a failed round's ctx alive until every role has resolved by
	// its own watchdog (see abort).
	votes bool

	// passes are the passes on the mesh by seq: the terminal adds each before
	// it scatters it and removes it once it has landed; a worker finds there
	// the trace its spans go to and the slot its traffic goes in.
	passesMu sync.Mutex
	passes   map[uint32]*flight

	errs    []error        // slot r written only by rank r (terminal = k)
	workers sync.WaitGroup // one count per serving rank and per pass collector
}

// newRound starts a round over ranks (nil = every worker): one goroutine per
// serving rank, each running the device side until the round ends.
func (c *Cluster) newRound(live []int) *round {
	rd := &round{
		ranks: live, live: live,
		errs:   make([]error, c.k+1),
		votes:  c.opts.MaxRetries > 0 && c.opts.OpTimeout > 0,
		passes: make(map[uint32]*flight),
	}
	if live == nil {
		rd.ranks = c.allRanks()
	}
	rd.ctx, rd.cancel = context.WithCancel(c.serveCtx)
	rd.idle, rd.stopIdle = context.WithCancel(comm.Unwatched(rd.ctx))
	rd.workers.Add(len(rd.ranks))
	for _, r := range rd.ranks {
		go func(rank int) {
			defer rd.workers.Done()
			if rd.errs[rank] = c.worker(rd, rank); rd.errs[rank] != nil {
				rd.abort() // release the other roles
			}
		}(r)
	}
	return rd
}

// abort releases the other roles of a failed round. When every op carries a
// watchdog and a blame vote will be taken, the round's context stays alive:
// each blocked role then resolves within OpTimeout with an attributed timeout
// naming the rank it waited on — the evidence blame voting needs. An early
// cancel would collapse those votes into anonymous context.Canceled
// knock-ons, letting whichever watchdog happened to fire first (possibly the
// faulty rank's own, blaming an innocent peer) decide the vote alone.
func (rd *round) abort() {
	rd.stopIdle()
	if !rd.votes {
		rd.cancel()
	}
}

// endRound stops a round the terminal has left — because it failed (err), the
// plan changed, or the cluster is closing: every worker returns, and whatever
// the round left undelivered on the FIFO links is dropped, so the next
// round's streams start aligned whatever ended this one.
func (c *Cluster) endRound(rd *round, err error) {
	if err != nil {
		rd.errs[c.k] = err
		rd.abort()
	} else {
		rd.cancel()
	}
	rd.workers.Wait()
	rd.cancel()
	c.flushResidue()
}

// flushResidue drops whatever undelivered messages a round left queued on the
// FIFO links. The flush goes through the wrapped peer stack (flushing the raw
// mesh directly would bypass any state a wrapper layers on top); when an
// opaque WrapTransport hides the Flusher, it falls back to the raw mesh so
// the links still drain.
func (c *Cluster) flushResidue() {
	if comm.TryFlush(c.peers[0]) {
		return
	}
	c.mesh[0].Flush()
}

// recordPhase feeds one timed step to both observers: the request's span
// trace (nil is a no-op) and the phase counters. layer is -1 for boundary
// work that belongs to no layer.
func (c *Cluster) recordPhase(tr *trace.RequestTrace, rank, layer int, phase trace.Phase, d time.Duration) {
	tr.Add(rank, layer, phase, d)
	c.metrics.phase(phase, d)
}

// device is worker rank's side of the position-wise protocol for one pass —
// the one place a pass is paced at the rank's emulated rate and its compute
// and synchronisation spans are reported, to tr. The caller names its Group
// and Ex.
func (c *Cluster) device(rank int, tr *trace.RequestTrace) *positionwise.Device {
	return &positionwise.Device{
		Model: c.models[rank], Peer: c.peers[rank], Terminal: c.terminalRank(),
		Pace: func(ctx context.Context, layer int, start time.Time, flops int64) error {
			if err := c.paceRank(ctx, rank, start, flops); err != nil {
				return err
			}
			c.recordPhase(tr, rank, layer, trace.PhaseCompute, time.Since(start))
			return nil
		},
		OnComm: func(layer int, d time.Duration) {
			c.recordPhase(tr, rank, layer, trace.PhaseComm, d)
		},
	}
}

// worker is one device's side of a round: a switch over the terminal's
// frames, in the order the FIFO link delivers them. A pass frame runs this
// rank's share of Algorithm 2 — and, where the pass is a join this rank owns,
// leaves a K/V cache in its table; step frames advance the listed caches with
// one batched matmul per weight per layer and are answered with their rows;
// leave frames drop caches. Every field is validated before use, and a
// malformed frame fails the round with errBadFrame.
func (c *Cluster) worker(rd *round, rank int) error {
	ctx, p, term, m := rd.ctx, c.peers[rank], c.terminalRank(), c.models[rank]
	// A join's activations stay out of the matrix pool, left to the garbage
	// collector: the pool keeps one class per N×F and prompt lengths rarely
	// repeat — recycling them measured +3–4 MB of peak RSS on both generate
	// workloads for no throughput.
	ex, joinEx := comm.NewExchange(c.pool), comm.NewExchange(nil)
	states := make(map[uint32]*model.DecodeState)
	defer c.metrics.kvCache(rank, nil)
	// Per-step scratch, reused across frames.
	var (
		sts       []*model.DecodeState
		ids       []int
		positions []int
	)
	for {
		c.metrics.kvCache(rank, states)
		// A rank owning nothing may hear nothing until the next pass: that
		// wait is not the watchdog's business (rd.idle). An owner is due a
		// frame every round and stays watched.
		wait := ctx
		if len(states) == 0 {
			wait = rd.idle
		}
		before := p.Stats()
		frame, err := p.Recv(wait, term)
		if err != nil {
			return err
		}
		if len(frame) == 0 {
			return fmt.Errorf("%w: empty frame", errBadFrame)
		}
		switch frame[0] {
		case opPass:
			pf, err := parsePassFrame(frame, len(rd.ranks), m, ex.Pool())
			if err != nil {
				return err
			}
			comm.ReleaseBuffer(frame)
			f := rd.pass(pf.seq)
			var tr *trace.RequestTrace
			if f != nil {
				tr = f.req.trace
			}
			dev := c.device(rank, tr)
			if dev.Group, err = comm.NewSubgroup(p, memberOrder(rd.ranks, pf.last)); err != nil {
				return err
			}
			dev.Ex = ex
			if pf.read.Cache {
				dev.Ex = joinEx
			}
			var state *model.DecodeState
			if pf.ids != nil {
				state, err = dev.RunTokens(ctx, pf.ids, pf.ranges, pf.read)
			} else {
				state, err = dev.Run(ctx, pf.x, pf.ranges, pf.read)
			}
			if f != nil {
				// This rank runs its frames one at a time: the difference of
				// its counters is its traffic in this pass.
				f.stats[rank] = p.Stats().Sub(before)
				f.ran.Done()
			}
			if err != nil {
				return err
			}
			if state != nil {
				states[pf.seq] = state
			}
		case opStep:
			if len(frame) < 3 {
				return fmt.Errorf("%w: step frame of %d bytes", errBadFrame, len(frame))
			}
			n := int(binary.LittleEndian.Uint16(frame[1:]))
			if n == 0 || len(frame) != 3+8*n {
				return fmt.Errorf("%w: step frame of %d bytes for %d sequences", errBadFrame, len(frame), n)
			}
			sts, ids, positions = sts[:0], ids[:0], positions[:0]
			for i := 0; i < n; i++ {
				off := 3 + 8*i
				id := binary.LittleEndian.Uint32(frame[off:])
				st, ok := states[id]
				if !ok {
					return fmt.Errorf("%w: step for sequence %d, which rank %d does not own", errBadFrame, id, rank)
				}
				sts = append(sts, st)
				ids = append(ids, int(binary.LittleEndian.Uint32(frame[off+4:])))
			}
			comm.ReleaseBuffer(frame)
			start := time.Now()
			out, err := m.DecodeStepBatch(sts, ids)
			if err != nil {
				return err
			}
			// One paced interval for this rank's share of the fused step:
			// the summed Γ of the solo steps it replaces (fusion changes
			// latency, not MACs).
			for _, st := range sts {
				positions = append(positions, st.Pos)
			}
			if err := c.paceRank(ctx, rank, start, decodeStepCost(m, positions...)); err != nil {
				return err
			}
			c.recordPhase(nil, rank, -1, trace.PhaseCompute, time.Since(start))
			if err := p.Send(ctx, term, ex.Encode(out)); err != nil {
				return err
			}
		case opLeave:
			if len(frame) != 5 {
				return fmt.Errorf("%w: leave frame of %d bytes", errBadFrame, len(frame))
			}
			delete(states, binary.LittleEndian.Uint32(frame[1:]))
			comm.ReleaseBuffer(frame)
		default:
			return fmt.Errorf("%w: unknown opcode %d", errBadFrame, frame[0])
		}
	}
}

// rootCause elects a failed round's reported error from its per-role slots.
// Attributed errors (comm.RemoteError names a culprit rank) outrank plain
// failures, which outrank deadline expiries, which outrank the secondary
// context.Canceled knock-ons that every other role resolves with once the
// round's context is torn down. A deadline expiry from Options.RequestTimeout
// is normalized to the typed comm.ErrTimeout so callers (and the recovery
// rule) can match it with errors.Is.
func (c *Cluster) rootCause(rd *round) error {
	var first error
	rank := -1
	for r, e := range rd.errs {
		if e == nil {
			continue
		}
		if first == nil || causePriority(e) > causePriority(first) {
			first, rank = e, r
		}
	}
	if first == nil {
		return nil
	}
	if errors.Is(first, context.DeadlineExceeded) && !errors.Is(first, comm.ErrTimeout) {
		first = fmt.Errorf("%w: %w", comm.ErrTimeout, first)
	}
	return fmt.Errorf("cluster: rank %d: %w", rank, first)
}

// causePriority ranks candidate root causes; higher wins.
func causePriority(err error) int {
	if _, ok := comm.RemoteRank(err); ok {
		return 3
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return 2
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return 1
	}
	return 0 // context.Canceled — a knock-on from the shared round cancel
}
