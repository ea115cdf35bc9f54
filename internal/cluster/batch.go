package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// Continuous batching (vLLM/Orca-style iteration-level scheduling; see
// DESIGN.md "Continuous batching"). Generation does not dispatch one
// exclusive mesh protocol per request: a batch manager coalesces queued
// sequences into a single long-lived "batched-generate" request whose
// terminal loop alternates three boundaries —
//
//	join:    queued sequences prefill, up to MaxBatch live. The terminal
//	         gives each joiner one owner rank — the least-loaded live rank,
//	         load being owned sequences ÷ the rank's share of the installed
//	         partition scheme, ties taking turns from the lowest rank up — and
//	         ships the prefix as token ids; the live ranks run Algorithm 2 up
//	         to the last layer, the owner keeping its attention's K/V as the
//	         caches; the synchronisation that feeds the last layer is a Gather
//	         to the owner, which alone computes that layer's newest row
//	         (decode.go). A sequence never moves while it is live;
//	produce: each live sequence's next token is decoded from its last
//	         hidden row; finished or canceled sequences leave;
//	step:    the round is sharded by sequence. Each owner gets one frame
//	         carrying only its own sequences' newest tokens, advances their
//	         caches with a single batched matmul per weight per layer, and
//	         returns its rows in one message; the terminal gathers the ≤ K
//	         replies and scatters the rows back to their sequences. A rank
//	         owning nothing in a round gets no frame.
//
// B concurrent streams thus pay one round per token instead of B, the
// round's compute is divided between the owners instead of repeated on every
// worker, and each cache lives on one device. Per-sequence outputs stay
// bit-identical to solo runs (model.DecodeStepBatch's row-wise exactness
// holds for any subset of the batch), membership changes only happen between
// steps, and a lone request degenerates to a batch of one on one owner.
//
// Fault tolerance (DESIGN.md "Fault-tolerant batching"): with
// Options.MaxRetries > 0 a mid-batch device failure does not kill the
// co-batched sequences. The failed round's surviving sequences park —
// whoever owned them — the blamed rank is recorded with the same health
// machinery the solo path uses, and the next round re-slices the
// position-wise partition over the survivors; each parked sequence resumes by
// re-prefilling its committed prompt+generated prefix onto a fresh owner, so
// its greedy continuation is exactly the one an uninterrupted run would have
// produced. Blast radius is isolated the other way too: a fault attributable
// to one sequence (its caller canceling, its own decode failing, its prefill
// partition arriving corrupt) retires that sequence alone at a step boundary
// while the rest of the batch keeps decoding. With no surviving worker,
// sequences fall back to the terminal replica one at a time.
//
// Compatibility rules: every sequence on a cluster shares the replicated
// model and greedy decoding, so any set of decoder sequences is
// batch-compatible; sequences differ only in cache length, content and
// owner, and their caches do not depend on the partition scheme they were
// prefilled under — an adaptive install (adapt.go) reaches the next joiner's
// ranges and placement and leaves live sequences decoding.
//
// Terminal→worker frames (FIFO links; first byte is the opcode, integers
// little-endian). R is the round's live-rank count; ranges are in live-set
// order, contiguous from row 0 and cover the prefix's N positions:
//
//	opPrefill  [1][seqID u32][owner u16][R u16][R×(from u32, to u32)]
//	           then the prefix in its own frame, [N×token u32]
//	           (positionwise.TokenFrame — the frame a token classify scatters
//	           with no header), ids in the vocabulary, 1 ≤ N ≤ MaxSeq; to
//	           every live rank, which answers with a partition: the owner's
//	           last hidden row 1×F, else 0×F
//	opStep     [2][round u32][owners u16][n u16][n×(seqID u32, token u32)]
//	           to each of the round's `owners` ranks, its own n ≥ 1 rows
//	opLeave    [3][seqID u32]            to the owner
//	zero-length frame                    batch request shutdown
//
// Workers validate every field before use and fail the round with
// errBadFrame on a malformed frame; the fence then flushes the links, so the
// next round's streams start aligned.
const (
	opPrefill = 1
	opStep    = 2
	opLeave   = 3
)

// errBadFrame reports a terminal→worker batch frame that failed validation.
var errBadFrame = errors.New("cluster: malformed batch frame")

// batchBackoff spaces recovery rounds after a batch fault, scaled by the
// consecutive-fault count, so a flapping mesh is not hammered with
// immediate re-prefills.
const batchBackoff = 2 * time.Millisecond

// batchSeq is one generate sequence flowing through the batcher. Ownership
// is single-threaded at all times: the batcher owns it (under mu) while
// pending, the terminal step loop owns it while live, and finish hands it
// back to the caller exactly once.
type batchSeq struct {
	ctx     context.Context
	id      uint32
	prompt  []int
	steps   int
	onToken func(int)
	trace   *trace.RequestTrace
	enq     time.Time
	res     *GenerateResult

	// Live-decode state, owned by the terminal loop after join. owner is
	// the worker rank holding the sequence's K/V caches for this residency.
	tokens      []int
	produced    int
	owner       int
	last        *tensor.Matrix // final hidden row of the newest position
	decodeStart time.Time
	joinStats   []comm.Stats // per-rank scope snapshot at join

	// Fault-recovery state. attempts counts batch rounds this sequence was
	// dispatched into (prefilled or re-prefilled); parkedAt is non-zero
	// while the sequence sits in pending after surviving a batch fault,
	// waiting to resume from its committed tokens.
	attempts int
	parkedAt time.Time

	// streamMu orders token callbacks against the caller's return: it is
	// held across each onToken call — deliberately, the one place a lock
	// spans caller code — so closeStream waits out a callback in flight and
	// no later one begins. Only the terminal loop and the returning caller
	// ever contend for it.
	streamMu     sync.Mutex
	streamClosed bool

	err  error
	done chan struct{}
}

// finish resolves the sequence for its caller.
func (s *batchSeq) finish(err error) {
	s.err = err
	close(s.done)
}

// emit streams one token to the caller unless the caller has already
// returned.
func (s *batchSeq) emit(tok int) {
	if s.onToken == nil {
		return
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if !s.streamClosed {
		s.onToken(tok)
	}
}

// closeStream is called by a caller abandoning the sequence (context
// cancellation, shutdown) before it returns: it waits for a token callback
// in flight and suppresses every later one.
func (s *batchSeq) closeStream() {
	s.streamMu.Lock()
	s.streamClosed = true
	s.streamMu.Unlock()
}

// batcher coalesces generate sequences into batched-generate requests. At
// most one batch request is in flight per cluster; it keeps running while
// sequences remain and retires when the batch drains.
type batcher struct {
	c *Cluster

	mu      sync.Mutex
	pending []*batchSeq
	live    int // sequences taken by the running batch, not yet left
	running bool
	nextID  uint32
	// lastPlan remembers the previous round's live-set signature so the
	// flight recorder logs plan changes (degraded entry/recovery), not
	// every round.
	lastPlan string
	// lastOwner is the owner of the last sequence to join (-1 before the
	// first): placement ties take turns from there. Terminal loop only.
	lastOwner int
}

// add enqueues a sequence and ensures a batch request is running.
func (b *batcher) add(seq *batchSeq) error {
	b.mu.Lock()
	if b.c.serveCtx.Err() != nil {
		b.mu.Unlock()
		return errServingStopped
	}
	b.nextID++
	seq.id = b.nextID
	seq.trace.SetID(uint64(seq.id))
	b.pending = append(b.pending, seq)
	start := !b.running
	b.running = true
	b.mu.Unlock()
	if start {
		go b.run()
	}
	return nil
}

// take moves up to n pending sequences into the running batch.
func (b *batcher) take(n int) []*batchSeq {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || len(b.pending) == 0 {
		return nil
	}
	if n > len(b.pending) {
		n = len(b.pending)
	}
	taken := b.pending[:n:n]
	b.pending = append([]*batchSeq(nil), b.pending[n:]...)
	b.live += len(taken)
	return taken
}

// release returns n live slots after sequences leave the batch.
func (b *batcher) release(n int) {
	b.mu.Lock()
	b.live -= n
	b.mu.Unlock()
}

// requeue moves parked sequences back to the front of the pending queue so
// resumed work re-enters before newly arrived sequences.
func (b *batcher) requeue(parked []*batchSeq) {
	if len(parked) == 0 {
		return
	}
	b.mu.Lock()
	b.live -= len(parked)
	next := make([]*batchSeq, 0, len(parked)+len(b.pending))
	next = append(next, parked...)
	next = append(next, b.pending...)
	b.pending = next
	b.mu.Unlock()
}

// width reports sequences live in or waiting for the batch.
func (b *batcher) width() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.live + len(b.pending)
}

// run drives batch requests through the serving runtime until the batch
// drains. One run owns the "running" flag; a sequence arriving after the
// final drain check starts a fresh run. A batch request that dies to a
// retryable fault is re-dispatched over the surviving workers, resuming
// every parked sequence (see adjudicate).
func (b *batcher) run() {
	c := b.c
	if w := c.opts.BatchWindow; w > 0 {
		b.coalesce(w)
	}
	faults := 0
	for {
		if !b.purgeCanceled() {
			return // nothing pending or live: the run retired
		}
		live := b.plan()
		degraded := live != nil // a subset of the mesh, possibly empty
		// Log plan changes — full-strength start, degraded entry, recovery —
		// once per transition rather than per round.
		sig := fmt.Sprintf("degraded=%v live=%v", degraded, live)
		if sig != b.lastPlan {
			b.lastPlan = sig
			if degraded {
				c.flight.Eventf("degraded_entry", -1, "batch plan re-sliced over live ranks %v", live)
			} else {
				c.flight.Eventf("batch_plan", -1, "batch running at full strength (k=%d)", c.k)
			}
		}
		if degraded && len(live) == 0 {
			// No surviving worker: serve each pending sequence on the
			// terminal replica alone, then re-check for arrivals.
			b.fallbackPending()
			continue
		}
		// Fenced when fault-tolerant: a failed round's residue is flushed
		// before the next round enters, and the abort path preserves the
		// attributed per-rank errors blame voting needs.
		req := &request{
			runner: batchRunner{b}, supervised: true, noTimeout: true,
			live: live, degraded: degraded,
			fenced: c.opts.MaxRetries > 0,
		}
		// Scopes are pre-created so the terminal can snapshot every rank's
		// counters at each sequence's join and leave — per-sequence traffic
		// deltas inside one long-lived mesh request.
		req.scopes = make([]*comm.ScopedPeer, c.k+1)
		for r := range req.scopes {
			req.scopes[r] = comm.Scoped(c.peers[r])
		}
		pend, err := c.submit(context.Background(), req)
		if err == nil {
			// Sequence-level outcomes were already delivered seq by seq;
			// the batch request's own error is the terminal's fatal cause.
			_ = pend.wait(context.Background())
		}
		b.mu.Lock()
		if c.serveCtx.Err() != nil {
			pending := b.pending
			b.pending = nil
			b.running = false
			b.mu.Unlock()
			for _, s := range pending {
				s.finish(errServingStopped)
			}
			return
		}
		b.mu.Unlock()
		if err != nil {
			continue // submission failed; the shutdown check above decides
		}
		if req.err != nil {
			faults++
			b.adjudicate(req, faults)
			continue
		}
		faults = 0
		if c.opts.MaxRetries > 0 {
			// A clean round is the probe result for any probing rank.
			c.health.recordSuccess(req.liveRanks(c))
		}
	}
}

// coalesce waits out the batch window so a concurrent burst fuses into the
// first round, waking early when every pending sequence has been canceled —
// an abandoned window must not cost a fenced mesh round for an empty batch.
func (b *batcher) coalesce(w time.Duration) {
	c := b.c
	deadline := time.NewTimer(w)
	defer deadline.Stop()
	for {
		// cancel stays nil for a waiter that cannot be canceled
		// (context.Background): the window then simply runs out.
		var cancel <-chan struct{}
		b.mu.Lock()
		abandoned := len(b.pending) > 0
		for _, s := range b.pending {
			if s.ctx.Err() == nil {
				cancel, abandoned = s.ctx.Done(), false
				break
			}
		}
		b.mu.Unlock()
		if abandoned {
			return // every pending sequence is already canceled
		}
		select {
		case <-deadline.C:
			return
		case <-c.serveCtx.Done():
			return
		case <-cancel:
			// A waiter was abandoned; re-inspect the rest of the window.
		}
	}
}

// purgeCanceled resolves pending sequences whose callers are gone without
// spending a mesh round on them, and reports whether the run continues.
// When nothing is left pending or live it retires the run (clearing the
// running flag under the same lock add() checks) and returns false.
func (b *batcher) purgeCanceled() bool {
	c := b.c
	b.mu.Lock()
	var dropped []*batchSeq
	keep := b.pending[:0]
	for _, s := range b.pending {
		if s.ctx.Err() != nil {
			dropped = append(dropped, s)
		} else {
			keep = append(keep, s)
		}
	}
	b.pending = keep
	idle := len(b.pending) == 0 && b.live == 0
	if idle {
		b.running = false
	}
	b.mu.Unlock()
	for _, s := range dropped {
		c.metrics.canceledInQueue()
		s.finish(s.ctx.Err())
	}
	return !idle
}

// plan picks the worker set for the next batch round. With fault tolerance
// off, every round runs the full mesh (nil live set). Otherwise the health
// tracker decides between a full round, a degraded round over the survivors,
// and — empty live set — terminal-local fallback. The partition scheme is not
// planned here: each join slices its own prompt (joinScheme).
func (b *batcher) plan() []int {
	c := b.c
	if c.opts.MaxRetries == 0 {
		return nil
	}
	if hl := c.health.live(time.Now()); len(hl) < c.k {
		return hl
	}
	return nil
}

// adjudicate decides each parked sequence's fate after a batch round died:
// on a retryable fault the blamed rank is marked unhealthy and in-budget
// sequences stay pending to resume next round; exhausted sequences — and
// every parked sequence when the fault is not retryable or fault tolerance
// is off — resolve with the round's error. Fresh sequences that never rode
// the dead round are left untouched.
func (b *batcher) adjudicate(req *request, faults int) {
	c := b.c
	cause := req.err
	recoverable := c.opts.MaxRetries > 0 && retryable(cause)
	if recoverable {
		// req.errs is safe to read here: collect() waits for every worker
		// before resolving the request.
		blamed, bcause := blameRank(req.errs, c.k)
		if blamed >= 0 {
			c.health.recordFailure(blamed, bcause)
		}
		c.metrics.batchRecovery(cause)
		c.flight.Eventf("batch_recovery", blamed, "fused round died (fault %d): %v", faults, cause)
	}
	budget := 1 + c.opts.MaxRetries
	var doomed []*batchSeq
	b.mu.Lock()
	keep := b.pending[:0]
	for _, s := range b.pending {
		switch {
		case s.parkedAt.IsZero(): // never rode the dead round
			keep = append(keep, s)
		case recoverable && s.attempts < budget:
			keep = append(keep, s)
		default:
			doomed = append(doomed, s)
		}
	}
	b.pending = keep
	b.mu.Unlock()
	for _, s := range doomed {
		err := cause
		if recoverable {
			err = fmt.Errorf("cluster: %d attempts exhausted: %w", s.attempts, cause)
		}
		b.resolve(req, s, err)
	}
	if recoverable {
		select {
		case <-time.After(time.Duration(faults) * batchBackoff):
		case <-c.serveCtx.Done():
		}
	}
}

// fallbackPending serves pending sequences on the terminal's own replica
// when no worker rank is eligible — degraded mode's last resort. Each
// sequence re-prefills its committed prefix locally and decodes unpaced,
// with no mesh traffic; resumed streams continue exactly where they
// stopped.
func (b *batcher) fallbackPending() {
	for {
		taken := b.take(1)
		if len(taken) == 0 {
			return
		}
		b.fallbackSeq(taken[0])
	}
}

// fallbackSeq is one sequence's terminal-local serve (see fallbackPending).
func (b *batcher) fallbackSeq(s *batchSeq) {
	c := b.c
	if err := s.ctx.Err(); err != nil {
		c.metrics.canceledInQueue()
		b.release(1)
		s.finish(err)
		return
	}
	s.attempts++
	if !s.parkedAt.IsZero() {
		s.trace.Add(c.terminalRank(), -1, trace.PhaseRecover, time.Since(s.parkedAt))
		c.metrics.phase(trace.PhaseRecover, time.Since(s.parkedAt))
		c.metrics.batchSeqResumed()
		s.parkedAt = time.Time{}
	}
	s.res.Degraded = true
	done := func(cause error) {
		b.release(1)
		b.resolve(nil, s, cause)
	}
	m := c.models[0]
	prefix := s.prompt
	if len(s.tokens) > 0 {
		prefix = s.tokens
	}
	start := time.Now()
	last, state, err := m.ResumeState(prefix)
	if err != nil {
		done(err)
		return
	}
	s.res.PrefillLatency += time.Since(start)
	if len(s.tokens) == 0 {
		s.tokens = make([]int, len(s.prompt), len(s.prompt)+s.steps)
		copy(s.tokens, s.prompt)
	}
	s.last = last
	s.decodeStart = time.Now()
	c.metrics.fallbackServed()
	for {
		if err := s.ctx.Err(); err != nil {
			done(err)
			return
		}
		if err := b.produce(m, s); err != nil {
			done(err)
			return
		}
		if s.exhausted(c) {
			done(nil)
			return
		}
		if s.last, err = m.DecodeStep(state, s.tokens[len(s.tokens)-1]); err != nil {
			done(err)
			return
		}
	}
}

// batchRunner is the continuous-batching mesh protocol. Its terminal side
// interleaves sends and receives, so it is exclusive like the old
// generation protocol — but one fence now serves every fused sequence.
type batchRunner struct{ b *batcher }

func (batchRunner) name() string    { return "batched-generate" }
func (batchRunner) exclusive() bool { return true }

// admit is unused: exclusive runners run their whole terminal side in
// collect.
func (batchRunner) admit(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return nil
}

func (r batchRunner) collect(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, req *request) error {
	return r.b.terminal(ctx, p, ex, req)
}

func (batchRunner) worker(ctx context.Context, c *Cluster, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	return c.batchWorker(ctx, p, ex, rank, req)
}

// terminal drives the batch from the terminal device: join, produce, fused
// step, repeat until the batch drains. Degraded rounds run over the
// request's live ranks only.
func (b *batcher) terminal(ctx context.Context, p comm.Peer, ex *comm.Exchange, req *request) error {
	c := b.c
	m := c.models[0] // pre/post-processing replica
	maxBatch := c.maxBatch()
	ranks := req.liveRanks(c)
	var live []*batchSeq
	// Per-round scratch: rows[r] lists the positions in live of the
	// sequences rank r owns, owners the ranks with any, ascending.
	rows := make([][]int, c.k)
	owners := make([]int, 0, len(ranks))
	// fail tears the round down on a mesh fault: sequences whose callers
	// are gone resolve with their own context error, the rest park for the
	// next round's resumption — adjudicate (run loop) then blames the rank
	// and decides, with the elected root cause in hand, which parked
	// sequences are still in budget. The workers are released by collect's
	// abort; no shutdown frames are attempted on a possibly wedged mesh.
	fail := func(err error) error {
		var parked []*batchSeq
		for _, s := range live {
			if cerr := s.ctx.Err(); cerr != nil {
				b.leaveLocked(req, s, cerr)
				continue
			}
			parked = append(parked, b.park(req, s))
		}
		b.requeue(parked)
		live = nil
		return err
	}
	first := true
	for {
		// Join boundary. The first take is unconditional so a generate
		// burst is never starved; afterwards joins pause while other
		// requests wait in the admission queue, so the exclusive fence
		// ends instead of extending itself indefinitely.
		if want := maxBatch - len(live); want > 0 && (first || len(c.queue) == 0) {
			taken := b.take(want)
			for i, s := range taken {
				joined, err := b.join(ctx, p, ex, req, s, live)
				if err != nil {
					// Park or resolve the failed joiner and the not-yet-
					// joined remainder along with the live batch.
					live = append(live, taken[i:]...)
					return fail(err)
				}
				if joined {
					live = append(live, s)
				}
			}
		}
		first = false
		if len(live) == 0 {
			// Batch drained: release the workers and retire the request.
			for _, r := range ranks {
				if err := p.Send(ctx, r, []byte{}); err != nil {
					return err
				}
			}
			return nil
		}

		// Produce boundary: decode each live sequence's next token;
		// finished, canceled, or failed sequences leave without touching
		// the others' caches — per-sequence faults stop here.
		keep := live[:0]
		for i, s := range live {
			// A mesh fault while notifying a departure is fatal for the
			// batch: the kept sequences plus the not-yet-visited remainder
			// all park or resolve with it (s itself was resolved by leave).
			lerr := error(nil)
			if err := s.ctx.Err(); err != nil {
				lerr = b.leave(ctx, p, req, s, err)
			} else if err := b.produce(m, s); err != nil || s.exhausted(c) {
				lerr = b.leave(ctx, p, req, s, err)
			} else {
				keep = append(keep, s)
			}
			if lerr != nil {
				live = append(keep, live[i+1:]...)
				return fail(lerr)
			}
		}
		live = keep
		if len(live) == 0 {
			continue // maybe joiners arrived while producing
		}

		// Fused step, sharded by sequence: every owner gets its own rows in
		// one frame and advances them while the others advance theirs; the
		// terminal gathers the replies and scatters each row back.
		for r := range rows {
			rows[r] = rows[r][:0]
		}
		owners = owners[:0]
		for i, s := range live {
			rows[s.owner] = append(rows[s.owner], i)
		}
		for _, r := range ranks {
			if len(rows[r]) > 0 {
				owners = append(owners, r)
			}
		}
		round := c.stepRound.Add(1)
		for _, r := range owners {
			if err := p.Send(ctx, r, stepFrame(round, len(owners), live, rows[r])); err != nil {
				return fail(err)
			}
		}
		for _, r := range owners {
			got, err := p.Recv(ctx, r)
			if err != nil {
				return fail(err)
			}
			out, _, err := tensor.Decode(got)
			if err != nil {
				return fail(err)
			}
			comm.ReleaseBuffer(got)
			if out.Rows() != len(rows[r]) {
				return fail(fmt.Errorf("rank %d returned %d rows for %d sequences", r, out.Rows(), len(rows[r])))
			}
			for j, i := range rows[r] {
				if live[i].last, err = out.RowSlice(j, j+1); err != nil {
					return fail(err)
				}
			}
		}
		c.metrics.observeBatchStep(len(live))
	}
}

// produce decodes one token for s from its last hidden row: exactly the
// solo terminal's logits → argmax → append → stream ordering.
func (b *batcher) produce(m *model.Model, s *batchSeq) error {
	logits, err := m.LM.NextTokenLogits(s.last)
	if err != nil {
		return err
	}
	next := model.Argmax(logits)
	s.tokens = append(s.tokens, next)
	s.produced++
	s.emit(next)
	return nil
}

// exhausted reports that s has produced all requested tokens or filled the
// model's context window (the solo loop's two break conditions).
func (s *batchSeq) exhausted(c *Cluster) bool {
	return s.produced >= s.steps || len(s.tokens) >= c.cfg.MaxSeq
}

// join admits one pending sequence into the batch: the terminal slices its
// prompt — or, when resuming after a batch fault, its committed
// prompt+generated prefix — under the scheme installed right now, places it
// on the least-loaded live rank given the sequences already live, and the
// prefill runs on the workers (token ids out, the owner's last hidden row
// back) while the rest of the batch waits at the step boundary. Prefills of a
// burst run back-to-back, each its own round, so the partition math is
// untouched. Returns joined=false for sequence-local failures (resolved or
// re-parked here); a non-nil error is a mesh fault, fatal for the round.
func (b *batcher) join(ctx context.Context, p comm.Peer, ex *comm.Exchange, req *request, s *batchSeq, live []*batchSeq) (bool, error) {
	c := b.c
	resuming := !s.parkedAt.IsZero()
	if !resuming {
		wait := time.Since(s.enq)
		s.res.BatchWait = wait
		s.trace.AddAt(c.terminalRank(), -1, trace.PhaseBatchWait, 0, wait)
		c.metrics.observeBatchWait(wait)
	}
	if err := s.ctx.Err(); err != nil {
		// Abandoned while waiting to join: never dispatched to the mesh,
		// same accounting as the dispatcher's queued-cancel drop.
		c.metrics.canceledInQueue()
		b.release(1)
		s.finish(err)
		return false, nil
	}
	prefix := s.prompt
	if len(s.tokens) > 0 {
		prefix = s.tokens // resume from the committed prefix
	}
	if err := c.models[0].Embed.CheckTokens(prefix); err != nil {
		b.leaveLocked(req, s, err)
		return false, nil
	}
	ranks := req.liveRanks(c)
	scheme, err := c.joinScheme(req)
	if err != nil {
		b.leaveLocked(req, s, err)
		return false, nil
	}
	ranges, err := scheme.Ranges(len(prefix))
	if err != nil {
		b.leaveLocked(req, s, err)
		return false, nil
	}
	s.owner = pickOwner(ranks, scheme.Ratios(), live, b.lastOwner)
	s.attempts++
	if resuming {
		s.trace.Add(c.terminalRank(), -1, trace.PhaseRecover, time.Since(s.parkedAt))
		c.metrics.phase(trace.PhaseRecover, time.Since(s.parkedAt))
		c.metrics.batchSeqResumed()
		s.parkedAt = time.Time{}
	}
	s.joinStats = make([]comm.Stats, len(req.scopes))
	for r, sc := range req.scopes {
		s.joinStats[r] = sc.Stats()
	}
	c.metrics.batchJoin()
	start := time.Now()
	hdr, ids := prefillFrame(s.id, s.owner, ranges), positionwise.TokenFrame(prefix)
	if err := positionwise.Scatter(ctx, p, ranks, hdr, ids); err != nil {
		return false, err
	}
	last, seqErr, err := b.collectJoin(ctx, p, ex, ranks)
	if err != nil {
		return false, err
	}
	if seqErr != nil {
		// Every live rank delivered (the corrupt partition was consumed, so
		// the streams stay aligned) and the owner holds the new caches:
		// drop them and retire or re-park this joiner alone — the rest of
		// the batch never stops.
		if lerr := b.dropSeq(ctx, p, s); lerr != nil {
			return false, lerr
		}
		b.retireJoin(req, s, seqErr)
		return false, nil
	}
	s.res.PrefillLatency += time.Since(start)
	s.trace.Add(c.terminalRank(), -1, trace.PhaseBoundary, time.Since(start))
	if len(s.tokens) == 0 {
		s.tokens = make([]int, len(s.prompt), len(s.prompt)+s.steps)
		copy(s.tokens, s.prompt)
	}
	s.last = last
	s.decodeStart = time.Now()
	b.lastOwner = s.owner
	return true, nil
}

// joinScheme is the scheme a joining sequence's rows are sliced under and
// its owner is weighed by: the installed scheme on a full round — read at
// each join, so an install reaches the next joiner while live sequences keep
// decoding — and its re-slice over the round's survivors on a degraded one.
func (c *Cluster) joinScheme(req *request) (*partition.Scheme, error) {
	if req.degraded {
		return c.degradedScheme(req.live)
	}
	return c.currentScheme(), nil
}

// pickOwner places a joining sequence on the least-loaded of the round's
// ranks: load is the number of live sequences a rank already owns divided by
// its share of the scheme (shares[i] belongs to ranks[i]), so owned counts
// follow the installed ratios. Ties take turns — the first tied rank after
// `last`, the owner of the last sequence to join, wrapping round — so a batch
// narrower than the mesh still visits every rank with a share and each keeps
// feeding the step-time profile the controller reads. A rank with no share is
// passed over.
func pickOwner(ranks []int, shares []float64, live []*batchSeq, last int) int {
	first := 0 // scan from the first rank after last
	for first < len(ranks) && ranks[first] <= last {
		first++
	}
	best, bestLoad := ranks[0], math.Inf(1)
	for j := range ranks {
		i := (first + j) % len(ranks)
		if shares[i] <= 0 {
			continue
		}
		owned := 0
		for _, s := range live {
			if s.owner == ranks[i] {
				owned++
			}
		}
		if load := float64(owned) / shares[i]; load < bestLoad {
			best, bestLoad = ranks[i], load
		}
	}
	return best
}

// prefillFrame encodes an opPrefill header (see the frame table above).
func prefillFrame(id uint32, owner int, ranges []partition.Range) []byte {
	buf := make([]byte, 9+8*len(ranges))
	buf[0] = opPrefill
	binary.LittleEndian.PutUint32(buf[1:], id)
	binary.LittleEndian.PutUint16(buf[5:], uint16(owner))
	binary.LittleEndian.PutUint16(buf[7:], uint16(len(ranges)))
	for i, r := range ranges {
		binary.LittleEndian.PutUint32(buf[9+8*i:], uint32(r.From))
		binary.LittleEndian.PutUint32(buf[13+8*i:], uint32(r.To))
	}
	return buf
}

// parsePrefillFrame validates an opPrefill header against the round's live
// ranks: opcode, exact length, one range per live rank, an owner in the live
// set, and ranges contiguous from row 0. That they end at the prefix's last
// position is checked against the token frame that follows.
func parsePrefillFrame(frame []byte, live []int) (id uint32, owner int, ranges []partition.Range, err error) {
	if len(frame) < 9 || frame[0] != opPrefill {
		return 0, 0, nil, fmt.Errorf("%w: prefill frame of %d bytes", errBadFrame, len(frame))
	}
	id = binary.LittleEndian.Uint32(frame[1:])
	owner = int(binary.LittleEndian.Uint16(frame[5:]))
	n := int(binary.LittleEndian.Uint16(frame[7:]))
	if n != len(live) || len(frame) != 9+8*n {
		return 0, 0, nil, fmt.Errorf("%w: prefill frame of %d bytes with %d ranges for %d live ranks", errBadFrame, len(frame), n, len(live))
	}
	owned := false
	for _, r := range live {
		owned = owned || r == owner
	}
	if !owned {
		return 0, 0, nil, fmt.Errorf("%w: prefill owner %d outside live ranks %v", errBadFrame, owner, live)
	}
	ranges = make([]partition.Range, n)
	next := 0
	for i := range ranges {
		from := int(binary.LittleEndian.Uint32(frame[9+8*i:]))
		to := int(binary.LittleEndian.Uint32(frame[13+8*i:]))
		if from != next || to < from {
			return 0, 0, nil, fmt.Errorf("%w: prefill range %d is [%d,%d), want it to start at row %d", errBadFrame, i, from, to, next)
		}
		ranges[i], next = partition.Range{From: from, To: to}, to
	}
	return id, owner, ranges, nil
}

// parsePrefillTokens validates a token frame (positionwise.TokenFrame) of n
// positions — the ones an opPrefill header's ranges cover, or for a classify's
// headerless frame the ones its own length holds — as the embedding would.
func parsePrefillTokens(frame []byte, n int, e *model.Embedding) ([]int, error) {
	ids, err := positionwise.ParseTokens(frame, n, e)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return ids, nil
}

// collectJoin receives one prefill partition from every live rank — between
// them the one row a join returns, the owner's — draining all of them even
// after a failure so the FIFO streams stay aligned for the rest of the batch.
// A corrupt or undecodable partition — attributed to its sender by the frame
// checksum — is returned as the sequence-local seqErr; any other receive
// failure is a mesh fault (err), fatal for the round.
func (b *batcher) collectJoin(ctx context.Context, p comm.Peer, ex *comm.Exchange, ranks []int) (*tensor.Matrix, error, error) {
	pool := ex.Pool()
	parts := make([]*tensor.Matrix, 0, len(ranks))
	var seqErr, meshErr error
	for _, r := range ranks {
		got, err := p.Recv(ctx, r)
		if err != nil {
			if errors.Is(err, comm.ErrCorrupt) {
				if seqErr == nil {
					seqErr = err
				}
				continue // frame consumed; keep draining the other ranks
			}
			meshErr = err
			break
		}
		part, _, err := tensor.DecodePooled(pool, got)
		comm.ReleaseBuffer(got)
		if err != nil {
			if seqErr == nil {
				seqErr = err // hostile payload on a delivered frame
			}
			continue
		}
		parts = append(parts, part)
	}
	if meshErr != nil || seqErr != nil {
		for _, part := range parts {
			pool.Put(part)
		}
		return nil, seqErr, meshErr
	}
	out, err := tensor.ConcatRows(parts...)
	if err != nil {
		return nil, nil, err
	}
	for _, part := range parts {
		pool.Put(part)
	}
	if out.Rows() != 1 {
		return nil, nil, fmt.Errorf("cluster: join replies hold %d rows, want the owner's one", out.Rows())
	}
	return out, nil, nil
}

// retireJoin handles a sequence-local join failure (its own prefill
// partition arrived corrupt): the blamed sender is recorded with the health
// machinery, and the sequence alone retries next round or resolves — the
// rest of the batch never stops decoding.
func (b *batcher) retireJoin(req *request, s *batchSeq, cause error) {
	c := b.c
	if c.opts.MaxRetries > 0 {
		if r, ok := comm.RemoteRank(cause); ok {
			c.health.recordFailure(r, cause)
		}
		if retryable(cause) && s.attempts < 1+c.opts.MaxRetries {
			b.requeue([]*batchSeq{b.park(req, s)})
			return
		}
	}
	b.leaveLocked(req, s, fmt.Errorf("cluster: batched prefill: %w", cause))
}

// park pulls a surviving sequence out of a dead round: the residency it
// already paid (decode time, traffic) folds into its result, its committed
// tokens stay for the resume prefill, and parkedAt starts the recovery
// span. The caller moves it back to pending via requeue.
func (b *batcher) park(req *request, s *batchSeq) *batchSeq {
	b.accumulate(req, s)
	if req.degraded {
		s.res.Degraded = true
	}
	s.last = nil
	s.parkedAt = time.Now()
	return s
}

// leave removes a resolved sequence from the batch, telling its owner to
// drop its caches. cause nil is normal completion. The returned error is a
// mesh fault encountered while notifying (the sequence itself is resolved
// either way).
func (b *batcher) leave(ctx context.Context, p comm.Peer, req *request, s *batchSeq, cause error) error {
	sendErr := b.dropSeq(ctx, p, s)
	b.leaveLocked(req, s, cause)
	return sendErr
}

// dropSeq tells the sequence's owner to discard its caches.
func (b *batcher) dropSeq(ctx context.Context, p comm.Peer, s *batchSeq) error {
	var frame [5]byte
	frame[0] = opLeave
	binary.LittleEndian.PutUint32(frame[1:], s.id)
	return p.Send(ctx, s.owner, frame[:])
}

// leaveLocked finalizes a live sequence's result and accounting without
// touching the mesh (the workers either already dropped it, never held it,
// or are being torn down with the whole round).
func (b *batcher) leaveLocked(req *request, s *batchSeq, cause error) {
	b.release(1)
	b.resolve(req, s, cause)
}

// resolve hands a sequence back to its caller with its accumulated result.
// req may be nil (terminal-local fallback). Pending sequences resolved by
// adjudicate come through here too — they hold no live slot, so resolve
// itself releases nothing.
func (b *batcher) resolve(req *request, s *batchSeq, cause error) {
	c := b.c
	b.accumulate(req, s)
	s.res.Tokens = s.tokens
	s.res.Attempts = s.attempts
	if s.res.Attempts < 1 {
		s.res.Attempts = 1
	}
	if req != nil && req.degraded {
		s.res.Degraded = true
	}
	if cause != nil && !errors.Is(cause, context.Canceled) {
		c.metrics.batchSeqFailed()
	}
	c.metrics.observeRequest(s.res.Attempts, s.res.Degraded, cause)
	s.finish(cause)
}

// accumulate folds the sequence's current batch residency into its result:
// decode time since join and per-rank traffic deltas. It is idempotent per
// residency (joinStats clears), so a parked-then-resolved sequence counts
// each round exactly once; the batch-leave counter mirrors the join counter
// by firing only for residencies that actually joined.
func (b *batcher) accumulate(req *request, s *batchSeq) {
	c := b.c
	if !s.decodeStart.IsZero() {
		s.res.DecodeLatency += time.Since(s.decodeStart)
		s.decodeStart = time.Time{}
	}
	if s.joinStats == nil {
		return
	}
	if s.res.PerDevice == nil {
		s.res.PerDevice = make([]comm.Stats, len(req.scopes))
	}
	for r, sc := range req.scopes {
		s.res.PerDevice[r] = s.res.PerDevice[r].Add(sc.Stats().Sub(s.joinStats[r]))
	}
	s.joinStats = nil
	c.metrics.batchLeave()
}

// stepFrame encodes one owner's share of a fused decode step: the
// cluster-global round number (so every owner's step time lands in the same
// skew-detector round, stable across degraded transitions), how many owners
// the round has (the detector closes the round on that many reports), then
// the id and newest token of each sequence in idx — positions in live of the
// sequences this owner holds, in batch order.
func stepFrame(round uint32, owners int, live []*batchSeq, idx []int) []byte {
	buf := make([]byte, 9+8*len(idx))
	buf[0] = opStep
	binary.LittleEndian.PutUint32(buf[1:], round)
	binary.LittleEndian.PutUint16(buf[5:], uint16(owners))
	binary.LittleEndian.PutUint16(buf[7:], uint16(len(idx)))
	for j, i := range idx {
		s := live[i]
		binary.LittleEndian.PutUint32(buf[9+8*j:], s.id)
		binary.LittleEndian.PutUint32(buf[13+8*j:], uint32(s.tokens[len(s.tokens)-1]))
	}
	return buf
}

// batchWorker serves one device's side of the batch: every sequence's
// prefill runs its Algorithm-2 partition here, the sequences this rank owns
// keep their caches in a table, step frames advance the listed caches with
// one batched matmul per weight per layer and are answered with their rows,
// and leave frames drop caches. Frame order on the FIFO link from the
// terminal is the protocol. Ranks excluded from a degraded round idle
// through the whole request.
func (c *Cluster) batchWorker(ctx context.Context, p comm.Peer, ex *comm.Exchange, rank int, req *request) error {
	if req.liveIndex(c, rank) < 0 {
		return nil // excluded from this degraded round
	}
	ranks := req.liveRanks(c)
	term := c.terminalRank()
	m := c.models[rank]
	states := make(map[uint32]*model.DecodeState)
	defer c.metrics.kvCache(rank, nil)
	// Join prefills run on an exchange without a matrix pool, their
	// activations left to the garbage collector: the pool keeps one class per
	// N×F and prompt lengths rarely repeat — recycling them measured +3–4 MB
	// of peak RSS on both generate workloads for no throughput.
	prefillEx := comm.NewExchange(nil)
	// Per-step scratch, reused across frames.
	var (
		sts       []*model.DecodeState
		ids       []int
		positions []int
	)
	for {
		c.metrics.kvCache(rank, states)
		// A rank owning nothing may hear nothing until the next join: that
		// wait is not the watchdog's business (req.idle). An owner is due a
		// frame every round and stays watched.
		wait := ctx
		if len(states) == 0 {
			wait = req.idle
		}
		frame, err := p.Recv(wait, term)
		if err != nil {
			return err
		}
		if len(frame) == 0 {
			return nil
		}
		switch frame[0] {
		case opPrefill:
			id, owner, ranges, err := parsePrefillFrame(frame, ranks)
			if err != nil {
				return err
			}
			comm.ReleaseBuffer(frame)
			state, err := c.prefillWorker(ctx, p, prefillEx, rank, req, ranges, owner)
			if err != nil {
				return err
			}
			if state != nil {
				states[id] = state
			}
		case opStep:
			if len(frame) < 9 {
				return fmt.Errorf("%w: step frame of %d bytes", errBadFrame, len(frame))
			}
			round := binary.LittleEndian.Uint32(frame[1:])
			owners := int(binary.LittleEndian.Uint16(frame[5:]))
			n := int(binary.LittleEndian.Uint16(frame[7:]))
			if n == 0 || len(frame) != 9+8*n || owners < 1 || owners > len(ranks) {
				return fmt.Errorf("%w: step frame of %d bytes for %d sequences on %d owners", errBadFrame, len(frame), n, owners)
			}
			sts, ids, positions = sts[:0], ids[:0], positions[:0]
			for i := 0; i < n; i++ {
				off := 9 + 8*i
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
			host := time.Since(start)
			// One paced interval for this rank's share of the fused step:
			// the summed Γ of the solo steps it replaces (fusion changes
			// latency, not MACs).
			for _, st := range sts {
				positions = append(positions, st.Pos)
			}
			cost := decodeStepCost(m, positions...)
			if err := c.paceRank(ctx, rank, start, cost); err != nil {
				return err
			}
			elapsed := time.Since(start)
			c.recordPhase(req, rank, -1, trace.PhaseCompute, elapsed)
			// The skew detector compares the owners per MAC, since they carry
			// different shares of the round: it gets the device's time for
			// these rows without the timer slack of the paced sleep.
			c.obs.RecordRound(uint64(round), rank, owners, c.deviceTime(rank, host, cost), cost)
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
			return fmt.Errorf("%w: unknown batch opcode %d", errBadFrame, frame[0])
		}
	}
}
