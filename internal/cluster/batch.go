package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// The loop (DESIGN.md "Serving runtime"). One terminal goroutine is the
// cluster's data plane; it alternates three boundaries —
//
//	admit:   pending requests enter the mesh in arrival order, one pass each
//	         and up to one per serving rank on the mesh at once (a generate
//	         that finds MaxBatch sequences live waits, without blocking what
//	         is behind it). The terminal cuts the input under the scheme
//	         installed right now (positionwise.Slice) and ships it with the
//	         ranges in one frame per serving rank; the ranks run Algorithm 2
//	         cut down to what the caller reads (positionwise.Read) and each
//	         answers with a partition. Passes land in scatter order, all of
//	         them before the next step; a classify resolves as its lands. A
//	         generate's pass is its join: the terminal gives it one owner
//	         rank — the least-loaded, load being owned sequences ÷ the rank's
//	         share of the scheme, ties taking turns from the lowest rank up —
//	         which holds the last slice
//	         (the one a causal pass sends every row to), keeps its attention's
//	         K/V as the sequence's cache and answers with the newest row. A
//	         sequence never moves while it is live;
//	produce: each live sequence's next token is decoded from its last
//	         hidden row; finished or canceled sequences leave;
//	step:    while any sequence is live, one fused decode step sharded by
//	         sequence. Each owner gets one frame carrying only its own
//	         sequences' newest tokens, advances their caches with a single
//	         batched matmul per weight per layer, and returns its rows in one
//	         message; the terminal gathers the ≤ K replies and scatters the
//	         rows back to their sequences. A rank owning nothing in a round
//	         gets no frame.
//
// B concurrent streams thus pay one round per token instead of B, each cache
// lives on one device, and per-sequence outputs stay bit-identical to solo
// runs (model.DecodeStepBatch's row-wise exactness holds for any subset of
// the batch). With nothing pending and nothing live the loop sleeps.
//
// Recovery is one rule for every request (DESIGN.md "Recovery"): a mesh fault
// ends the round — its workers stop, the links are flushed — and everything
// that was on the mesh parks. With Options.MaxRetries > 0 and a retryable
// fault, the blamed rank is marked unhealthy and each parked request still in
// its 1 + MaxRetries budget re-enters the next round, which is planned over
// the surviving ranks: a classify runs its pass again, a generate re-prefills
// its committed prompt+generated prefix onto a fresh owner, so its greedy
// continuation is exactly the one an uninterrupted run would have produced.
// Otherwise parked requests resolve with the round's cause. A fault
// attributable to one request (its caller canceling, its own reply arriving
// corrupt) retires that request alone while the round goes on. With no
// surviving worker, requests are served on the terminal replica one at a time.
//
// Terminal→worker frames (FIFO links; first byte is the opcode, integers
// little-endian). R is the round's serving-rank count; ranges are in member
// order — serving-rank order, for a join rotated so that the owner comes last
// (memberOrder) — contiguous from row 0, and cover the input's N positions:
//
//	opPass   [1][form u8][read u8][at u16][seq u32][R u16][R×(from u32, to u32)][input]
//	         form 0: input is [N×token u32] (positionwise.TokenFrame), ids in
//	         the vocabulary, 1 ≤ N ≤ MaxSeq; form 1: the N×F matrix
//	         (tensor.Encode). read 0: every row (at = 0); 1: the classifier's
//	         pooled row at serving rank number at; 2: the newest row at owner
//	         number at, which holds the last slice and keeps its K/V under
//	         seq. On a causal model a one-row reader's slice ends at N. To
//	         every serving rank, which answers with a partition: its rows of
//	         the last layer, or for a one-row read the reader's 1×F and the
//	         others' 0×F
//	opStep   [2][n u16][n×(seq u32, token u32)]
//	         to each owner in the step, its own n ≥ 1 rows
//	opLeave  [3][seq u32]            to the owner
const (
	opPass  = 1
	opStep  = 2
	opLeave = 3

	formIDs, formX = 0, 1

	readAll, readPooled, readJoin = 0, 1, 2

	passHeader = 11 // bytes before the ranges
)

// errBadFrame reports a terminal→worker frame that failed validation.
var errBadFrame = errors.New("cluster: malformed frame")

// batchBackoff spaces recovery rounds after a fault, scaled by the
// consecutive-fault count, so a flapping mesh is not hammered with immediate
// re-prefills.
const batchBackoff = 2 * time.Millisecond

// generation is a generate request's decode side.
type generation struct {
	steps   int
	onToken func(int)
	res     *GenerateResult

	// Live-decode state, owned by the terminal loop after join. owner is the
	// worker rank holding the sequence's K/V caches for this residency.
	tokens      []int
	produced    int
	owner       int
	last        *tensor.Matrix // final hidden row of the newest position
	decodeStart time.Time

	// streamMu orders token callbacks against the caller's return: it is
	// held across each onToken call — deliberately, the one place a lock
	// spans caller code — so closeStream waits out a callback in flight and
	// no later one begins. Only the terminal loop and the returning caller
	// ever contend for it.
	streamMu     sync.Mutex
	streamClosed bool
}

// emit streams one token to the caller unless the caller has already
// returned.
func (g *generation) emit(tok int) {
	if g.onToken == nil {
		return
	}
	g.streamMu.Lock()
	defer g.streamMu.Unlock()
	if !g.streamClosed {
		g.onToken(tok)
	}
}

// closeStream is called by a caller abandoning the sequence (context
// cancellation, shutdown) before it returns: it waits for a token callback
// in flight and suppresses every later one.
func (g *generation) closeStream() {
	g.streamMu.Lock()
	g.streamClosed = true
	g.streamMu.Unlock()
}

// prefix is the ids a generate's pass prefills: its prompt, or when resuming
// after a fault its committed prompt+generated tokens.
func (req *request) prefix() []int {
	if req.gen != nil && len(req.gen.tokens) > 0 {
		return req.gen.tokens
	}
	return req.ids
}

// batcher is the loop's state: the pending queue every request waits in and
// the terminal goroutine's bookkeeping.
type batcher struct {
	c *Cluster

	mu      sync.Mutex
	pending []*request // arrival order; parked requests re-enter at the front
	taken   []*request // generates taken by the loop, not yet left
	// slots bounds pending at Options.QueueDepth: add takes one, the loop
	// returns it when the request leaves pending. wake tells a sleeping loop
	// that pending is no longer empty.
	slots chan struct{}
	wake  chan struct{}

	// Terminal loop only. lastPlan remembers the previous round's plan so the
	// flight recorder logs plan changes (degraded entry/recovery), not every
	// round; lastOwner is the owner of the last sequence to join (-1 before
	// the first): placement ties take turns from there; counted is the mesh's
	// counters as last fed to the traffic metrics.
	lastPlan  []int
	lastOwner int
	counted   []comm.Stats
	ex        *comm.Exchange
}

func newBatcher(c *Cluster, depth int) *batcher {
	return &batcher{
		c: c, lastOwner: -1,
		lastPlan: []int{-1}, // no plan yet: the first one is logged
		slots:    make(chan struct{}, depth),
		wake:     make(chan struct{}, 1),
		counted:  make([]comm.Stats, c.k+1),
		ex:       comm.NewExchange(c.pool),
	}
}

// add puts a request at the back of the pending queue, waiting for a slot
// while the queue is full. A submitter whose context ends first is counted as
// canceled in the queue.
func (b *batcher) add(req *request) error {
	c := b.c
	if c.serveCtx.Err() != nil {
		return errServingStopped // deterministic: a free slot must not win the select below
	}
	select {
	case b.slots <- struct{}{}:
	case <-c.serveCtx.Done():
		return errServingStopped
	case <-req.ctx.Done():
		c.metrics.canceledInQueue()
		return req.ctx.Err()
	}
	b.mu.Lock()
	if c.serveCtx.Err() != nil {
		b.mu.Unlock()
		<-b.slots
		return errServingStopped
	}
	req.id, req.queued = c.nextID.Add(1), true
	req.trace.SetID(req.id)
	b.pending = append(b.pending, req)
	c.metrics.queueLength(len(b.pending))
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return nil
}

// take removes from pending, in arrival order, everything that can enter the
// mesh now: every classify, and generates while the batch has room for them.
// Requests whose callers are gone resolve here with their context's error,
// counted only under voltage_requests_canceled_total — they report caller
// behaviour, not the workload.
func (b *batcher) take(room int) []*request {
	b.mu.Lock()
	var taken, dropped []*request
	keep := b.pending[:0]
	for _, req := range b.pending {
		switch {
		case req.ctx.Err() != nil:
			dropped = append(dropped, req)
		case req.gen != nil && room <= 0:
			keep = append(keep, req)
			continue
		default:
			if req.gen != nil {
				room--
				b.taken = append(b.taken, req)
			}
			taken = append(taken, req)
		}
		if req.queued {
			req.queued = false
			<-b.slots
		}
	}
	clear(b.pending[len(keep):])
	b.pending = keep
	b.c.metrics.queueLength(len(keep))
	b.mu.Unlock()
	for _, req := range dropped {
		b.c.metrics.canceledInQueue()
		req.finish(req.ctx.Err())
	}
	return taken
}

// release returns a generate's live slot once it has left the batch.
func (b *batcher) release(req *request) {
	b.mu.Lock()
	b.untake(req)
	b.mu.Unlock()
}

// untake drops req from taken; b.mu is held.
func (b *batcher) untake(req *request) {
	b.taken = slices.DeleteFunc(b.taken, func(r *request) bool { return r == req })
}

// requeue moves requests back to the front of the pending queue, so work a
// failed round interrupted re-enters before newly arrived requests.
func (b *batcher) requeue(reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	b.mu.Lock()
	for _, req := range reqs {
		b.untake(req)
	}
	b.pending = append(append(make([]*request, 0, len(reqs)+len(b.pending)), reqs...), b.pending...)
	b.c.metrics.queueLength(len(b.pending))
	b.mu.Unlock()
}

// width reports generate sequences live in, on their way into or waiting for
// the batch whose callers are still waiting: one whose caller gave up leaves
// at the loop's next boundary — after a pass on the mesh lands, when it is in
// one — but its call has already returned.
func (b *batcher) width() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, req := range slices.Concat(b.taken, b.pending) {
		if req.gen != nil && req.ctx.Err() == nil {
			n++
		}
	}
	return n
}

// await sleeps until a request is pending, and reports false when ctx ended
// first. It is called where no sequence is live: if what heads the queue is a
// fresh generate — the first sequence of a new batch — it is held until it is
// BatchWindow old, so a concurrent burst fuses into its first round.
func (b *batcher) await(ctx context.Context) bool {
	for {
		b.mu.Lock()
		var head *request
		if len(b.pending) > 0 {
			head = b.pending[0]
		}
		b.mu.Unlock()
		if head != nil {
			if w := b.c.opts.BatchWindow; w > 0 && head.gen != nil && head.parkedAt.IsZero() {
				b.coalesce(ctx, time.Until(head.enq.Add(w)))
			}
			return ctx.Err() == nil
		}
		select {
		case <-b.wake:
		case <-ctx.Done():
			return false
		}
	}
}

// coalesce waits out what is left of the batch window, waking early when
// every pending request has been canceled — an abandoned window is not worth
// waiting for.
func (b *batcher) coalesce(ctx context.Context, left time.Duration) {
	if left <= 0 {
		return
	}
	deadline := time.NewTimer(left)
	defer deadline.Stop()
	for {
		// cancel stays nil for a waiter that cannot be canceled
		// (context.Background): the window then simply runs out.
		var cancel <-chan struct{}
		b.mu.Lock()
		abandoned := len(b.pending) > 0
		for _, req := range b.pending {
			if req.ctx.Err() == nil {
				cancel, abandoned = req.ctx.Done(), false
				break
			}
		}
		b.mu.Unlock()
		if abandoned {
			return // every pending request is already canceled
		}
		select {
		case <-deadline.C:
			return
		case <-ctx.Done():
			return
		case <-cancel:
			// A waiter was abandoned; re-inspect the rest of the window.
		}
	}
}

// run is the terminal goroutine: round after round until the cluster closes.
// A round that dies to a retryable fault is followed by one over the
// surviving workers, resuming every parked request (see adjudicate).
func (b *batcher) run() {
	c := b.c
	faults := 0
	for b.await(c.serveCtx) {
		live := b.plan()
		// Log plan changes — full-strength start, degraded entry, recovery —
		// once per transition rather than per round.
		if !samePlan(live, b.lastPlan) {
			b.lastPlan = live
			if live != nil {
				c.flight.Eventf("degraded_entry", -1, "plan re-sliced over live ranks %v", live)
			} else {
				c.flight.Eventf("batch_plan", -1, "running at full strength (k=%d)", c.k)
			}
		}
		if live != nil && len(live) == 0 {
			// No surviving worker: serve what is pending on the terminal
			// replica alone, then re-check for arrivals.
			for _, req := range b.take(math.MaxInt) {
				b.fallback(req)
			}
			continue
		}
		rd := c.newRound(live)
		err := b.terminal(rd)
		c.endRound(rd, err)
		if c.serveCtx.Err() != nil {
			break
		}
		if err != nil {
			faults++
			b.adjudicate(rd, faults)
		} else {
			faults = 0
		}
	}
	b.mu.Lock()
	pending := b.pending
	b.pending = nil
	b.mu.Unlock()
	for _, req := range pending {
		req.finish(errServingStopped)
	}
}

// plan picks the worker set for the next round. With fault tolerance off,
// every round runs the full mesh (nil). Otherwise the health tracker decides
// between a full round, a degraded round over the survivors, and — an empty
// set — the terminal-local fallback. The partition scheme is not planned
// here: each pass slices its own input (passScheme).
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

// samePlan compares two plans: nil is the full mesh, an empty set none of it.
func samePlan(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// adjudicate decides each parked request's fate after a round died: on a
// retryable fault the blamed rank is marked unhealthy and in-budget requests
// stay pending to resume next round; exhausted requests — and every parked
// request when the fault is not retryable or fault tolerance is off — resolve
// with the round's error. Requests that never rode the dead round are left
// untouched.
func (b *batcher) adjudicate(rd *round, faults int) {
	c := b.c
	cause := c.rootCause(rd)
	c.metrics.attemptFailed(cause)
	recoverable := c.opts.MaxRetries > 0 && retryable(cause)
	if recoverable {
		// rd.errs is safe to read here: endRound waited for every worker.
		blamed, bcause := blameRank(rd.errs, c.k)
		if blamed >= 0 {
			c.health.recordFailure(blamed, bcause)
		}
		c.metrics.batchRecovery(cause)
		c.flight.Eventf("batch_recovery", blamed, "round died (fault %d): %v", faults, cause)
	}
	budget := 1 + c.opts.MaxRetries
	var doomed []*request
	b.mu.Lock()
	keep := b.pending[:0]
	for _, req := range b.pending {
		if req.parkedAt.IsZero() || (recoverable && req.attempts < budget) {
			keep = append(keep, req)
		} else {
			doomed = append(doomed, req)
		}
	}
	clear(b.pending[len(keep):])
	b.pending = keep
	b.mu.Unlock()
	for _, req := range doomed {
		err := cause
		if recoverable {
			err = fmt.Errorf("cluster: %d attempts exhausted: %w", req.attempts, cause)
		}
		b.resolve(req, err)
	}
	if recoverable {
		select {
		case <-time.After(time.Duration(faults) * batchBackoff):
		case <-c.serveCtx.Done():
		}
	}
}

// fallback serves one request on the terminal's own replica when no worker
// rank is eligible — degraded mode's last resort: unpaced, with no mesh
// traffic. A classify is the terminal's forward pass; a generate re-prefills
// its committed prefix locally and decodes on, so a resumed stream continues
// exactly where it stopped.
func (b *batcher) fallback(req *request) {
	c := b.c
	m := c.models[0]
	b.dispatch(req)
	req.degraded, req.live = true, []int{}
	c.metrics.fallbackServed()
	start := time.Now()
	g := req.gen
	if g == nil {
		x, err := req.x, error(nil)
		if req.ids != nil {
			x, err = m.Embed.EmbedTokens(req.ids)
		}
		if err == nil {
			x, err = m.ForwardFeatures(x)
		}
		if err == nil && req.pooled() {
			row := m.Classifier.PooledRow(x.Rows())
			x, err = x.RowSlice(row, row+1)
		}
		req.output, req.latency, req.perDevice = x, time.Since(start), make([]comm.Stats, c.k+1)
		b.resolve(req, err)
		return
	}
	done := func(cause error) {
		b.release(req)
		g.stopClock()
		b.resolve(req, cause)
	}
	last, state, err := m.ResumeState(req.prefix())
	if err != nil {
		done(err)
		return
	}
	g.res.PrefillLatency += time.Since(start)
	g.joined(req, last)
	for {
		if err := req.ctx.Err(); err != nil {
			done(err)
			return
		}
		if err := g.produce(m); err != nil {
			done(err)
			return
		}
		if g.exhausted(c) {
			done(nil)
			return
		}
		if g.last, err = m.DecodeStep(state, g.tokens[len(g.tokens)-1]); err != nil {
			done(err)
			return
		}
	}
}

// dispatch accounts for one more attempt of req: the attempt itself and, when
// it resumes a parked request, the recovery span that ends here.
func (b *batcher) dispatch(req *request) {
	c := b.c
	req.attempts++
	if !req.parkedAt.IsZero() {
		d := time.Since(req.parkedAt)
		req.trace.Add(c.terminalRank(), -1, trace.PhaseRecover, d)
		c.metrics.phase(trace.PhaseRecover, d)
		c.metrics.batchSeqResumed()
		req.parkedAt = time.Time{}
	}
}

// joined starts a sequence's residency once its prefill returned last, the
// newest position's hidden row.
func (g *generation) joined(req *request, last *tensor.Matrix) {
	if len(g.tokens) == 0 {
		g.tokens = make([]int, len(req.ids), len(req.ids)+g.steps)
		copy(g.tokens, req.ids)
	}
	g.last = last
	g.decodeStart = time.Now()
}

// stopClock folds the decode time since the sequence joined into its result.
func (g *generation) stopClock() {
	if !g.decodeStart.IsZero() {
		g.res.DecodeLatency += time.Since(g.decodeStart)
		g.decodeStart = time.Time{}
	}
}

// terminal drives one round from the terminal device: admit, produce, fused
// step, repeat. It returns nil when the plan changed under an empty batch (the
// next round is planned afresh), and the fault when the mesh failed or the
// cluster closed; whatever was on the mesh is parked and back in pending by
// then.
//
// Up to one pass per serving rank is on the mesh at once (flights, in scatter
// order). A worker runs its frames in the order they arrive, so it starts the
// next pass as soon as its own part of the one before is done — on a causal
// model the first slices long before the last — and the mesh works as a
// pipeline whose rate the busiest rank sets. Passes land, collected and
// resolved, in the order they were scattered, so the FIFO links stay aligned,
// and every one of them has landed before a fused step goes out: step frames
// and replies never interleave with a pass's.
func (b *batcher) terminal(rd *round) error {
	c := b.c
	p, m := c.peers[c.terminalRank()], c.models[0] // pre/post-processing replica
	maxBatch := c.maxBatch()
	var live []*request
	var flights []*flight
	// Per-round scratch: rows[r] lists the positions in live of the
	// sequences rank r owns, owners the ranks with any, ascending.
	rows := make([][]int, c.k)
	owners := make([]int, 0, len(rd.ranks))
	// fail tears the round down on a mesh fault: live sequences whose callers
	// are gone resolve with their own context error, the rest park for the
	// next round's resumption along with every pass on the mesh; requests
	// taken but not yet run go back as they came. adjudicate (run loop) then
	// blames the rank and decides, with the elected root cause in hand, which
	// parked requests are still in budget.
	fail := func(err error, unrun []*request) error {
		var back []*request
		for _, req := range live {
			if cerr := req.ctx.Err(); cerr != nil {
				b.leaveLocked(rd, req, cerr)
				continue
			}
			back = append(back, b.park(rd, req))
		}
		for _, f := range flights {
			f.cancel()
			back = append(back, b.park(rd, f.req))
		}
		b.requeue(append(back, unrun...))
		live, flights = nil, nil
		return err
	}
	// land resolves the oldest pass on the mesh once its replies are in: a
	// classify answers its caller, a join goes live.
	land := func() error {
		joined, err := b.land(rd, p, flights[0])
		if err != nil {
			return err
		}
		if joined {
			live = append(live, flights[0].req)
		}
		flights = flights[1:]
		return nil
	}
	for {
		// Admit boundary. An empty mesh is where the loop sleeps — any abort
		// of the round wakes it — and where a changed plan (a rank back on
		// probation, a rank blamed for one request's corrupt reply) takes effect.
		if len(live) == 0 && len(flights) == 0 && b.await(rd.idle) && !samePlan(b.plan(), rd.live) {
			return nil
		}
		if err := rd.idle.Err(); err != nil {
			// A role has failed the round, or the cluster is closing. What is
			// on the mesh lands first: its collectors resolve by a reply, a
			// watchdog or the round's end, and their errors are the
			// terminal's evidence for the blame vote.
			for len(flights) > 0 {
				if lerr := land(); lerr != nil {
					return fail(lerr, nil)
				}
			}
			return fail(err, nil)
		}
		taken := b.take(maxBatch - len(live) - joining(flights))
		for i, req := range taken {
			if len(flights) == len(rd.ranks) {
				if err := land(); err != nil {
					return fail(err, taken[i:])
				}
			}
			f, err := b.scatter(rd, p, req, live, flights)
			if f != nil {
				flights = append(flights, f)
			}
			if err != nil {
				return fail(err, taken[i+1:])
			}
		}
		if len(live) == 0 {
			// No batch to step: land the oldest pass once its replies are
			// in, unless a request arrives first and the mesh has room for it.
			if len(flights) > 0 {
				var wake <-chan struct{}
				if len(flights) < len(rd.ranks) {
					wake = b.wake
				}
				select {
				case <-flights[0].landed:
					if err := land(); err != nil {
						return fail(err, nil)
					}
				case <-wake:
				}
			}
			continue
		}
		for len(flights) > 0 {
			if err := land(); err != nil {
				return fail(err, nil)
			}
		}

		// Produce boundary: decode each live sequence's next token;
		// finished, canceled, or failed sequences leave without touching
		// the others' caches — per-sequence faults stop here.
		keep := live[:0]
		for i, req := range live {
			// A mesh fault while notifying a departure is fatal for the
			// round: the kept sequences plus the not-yet-visited remainder
			// all park or resolve with it (req itself was resolved by leave).
			lerr := error(nil)
			if err := req.ctx.Err(); err != nil {
				lerr = b.leave(rd, p, req, err)
			} else if err := req.gen.produce(m); err != nil || req.gen.exhausted(c) {
				lerr = b.leave(rd, p, req, err)
			} else {
				keep = append(keep, req)
			}
			if lerr != nil {
				live = append(keep, live[i+1:]...)
				return fail(lerr, nil)
			}
		}
		if live = keep; len(live) == 0 {
			continue
		}

		// Fused step, sharded by sequence: every owner gets its own rows in
		// one frame and advances them while the others advance theirs; the
		// terminal gathers the replies and scatters each row back.
		for r := range rows {
			rows[r] = rows[r][:0]
		}
		owners = owners[:0]
		for i, req := range live {
			rows[req.gen.owner] = append(rows[req.gen.owner], i)
		}
		for _, r := range rd.ranks {
			if len(rows[r]) > 0 {
				owners = append(owners, r)
			}
		}
		if err := b.step(rd, p, live, rows, owners); err != nil {
			return fail(err, nil)
		}
	}
}

// joining counts the joins among flights: sequences already holding a place
// in the batch.
func joining(flights []*flight) int {
	n := 0
	for _, f := range flights {
		if f.req.gen != nil {
			n++
		}
	}
	return n
}

// bounded is the context one trip of the terminal over the mesh — a pass, a
// fused step — runs under: the round's, cut off at Options.RequestTimeout, so
// a message lost anywhere resolves as comm.ErrTimeout (normalized in
// rootCause) instead of hanging the loop.
func (b *batcher) bounded(rd *round) (context.Context, context.CancelFunc) {
	if d := b.c.opts.RequestTimeout; d > 0 {
		return context.WithTimeout(rd.ctx, d)
	}
	return rd.ctx, func() {}
}

// step runs one fused decode step: a frame to every owner, a reply from each.
func (b *batcher) step(rd *round, p comm.Peer, live []*request, rows [][]int, owners []int) error {
	c := b.c
	ctx, cancel := b.bounded(rd)
	defer cancel()
	for _, r := range owners {
		if err := p.Send(ctx, r, stepFrame(live, rows[r])); err != nil {
			return err
		}
	}
	for _, r := range owners {
		got, err := p.Recv(ctx, r)
		if err != nil {
			return err
		}
		out, _, err := tensor.Decode(got)
		comm.ReleaseBuffer(got)
		if err != nil {
			return err
		}
		if out.Rows() != len(rows[r]) {
			return fmt.Errorf("rank %d returned %d rows for %d sequences", r, out.Rows(), len(rows[r]))
		}
		for j, i := range rows[r] {
			if live[i].gen.last, err = out.RowSlice(j, j+1); err != nil {
				return err
			}
		}
	}
	c.metrics.observeBatchStep(len(live))
	return nil
}

// produce decodes one token from the sequence's last hidden row: exactly the
// solo terminal's logits → argmax → append → stream ordering.
func (g *generation) produce(m *model.Model) error {
	logits, err := m.LM.NextTokenLogits(g.last)
	if err != nil {
		return err
	}
	next := model.Argmax(logits)
	g.tokens = append(g.tokens, next)
	g.produced++
	g.emit(next)
	return nil
}

// exhausted reports that the sequence has produced all requested tokens or
// filled the model's context window (the solo loop's two break conditions).
func (g *generation) exhausted(c *Cluster) bool {
	return g.produced >= g.steps || len(g.tokens) >= c.cfg.MaxSeq
}

// flight is a pass on the mesh: scattered, not yet landed.
type flight struct {
	req    *request
	ctx    context.Context    // bounded: the pass's RequestTimeout runs from its scatter
	cancel context.CancelFunc // called once the pass has landed or parked
	start  time.Time

	// stats is the pass's traffic by mesh rank, but for the terminal's
	// scatter, which is counted into the request as it happens: worker r
	// writes slot r once its run of the pass is over (ran counts them down),
	// the collector the terminal's receipts.
	stats []comm.Stats
	ran   sync.WaitGroup

	// landed is closed once the collector has set out, seqErr and err as
	// collect returns them.
	landed      chan struct{}
	out         *tensor.Matrix
	seqErr, err error
}

// pass returns the pass on the mesh numbered seq, or nil: a frame the
// terminal loop never scattered (a test's, handed straight to a worker).
func (rd *round) pass(seq uint32) *flight {
	rd.passesMu.Lock()
	defer rd.passesMu.Unlock()
	return rd.passes[seq]
}

// scatter puts req's pass on the mesh behind flights, the passes already on
// it: the terminal slices the input — for a generate resuming after a fault,
// its committed prefix — under the scheme installed right now, picks the
// reader (a generate's owner: the least-loaded serving rank given the
// sequences already live or joining), sends one frame to every serving rank
// and starts the pass's collector, which receives its replies once the pass
// before it has landed. Failures of this request alone resolve here; a
// non-nil error is a mesh fault, fatal for the round, with the pass (when
// there is one) to park.
func (b *batcher) scatter(rd *round, p comm.Peer, req *request, live []*request, flights []*flight) (*flight, error) {
	c := b.c
	g := req.gen
	if req.parkedAt.IsZero() {
		wait := time.Since(req.enq)
		req.trace.AddAt(c.terminalRank(), -1, trace.PhaseBatchWait, 0, wait)
		if g != nil {
			g.res.BatchWait = wait
			c.metrics.observeBatchWait(wait)
		}
	}
	// A join on the mesh already holds its owner's place, and placement ties
	// take turns from the last one scattered.
	owned, last := live, b.lastOwner
	for _, f := range flights {
		if f.req.gen != nil {
			owned, last = append(owned[:len(owned):len(owned)], f.req), f.req.gen.owner
		}
	}
	frame, members, replies, err := b.passFrame(rd, req, owned, last)
	if err != nil {
		b.leaveLocked(rd, req, err)
		return nil, nil
	}
	b.dispatch(req)
	req.resident = true
	if g != nil {
		c.metrics.batchJoin()
	} else {
		req.perDevice = nil // a classify reports its final attempt's traffic
	}
	f := &flight{req: req, stats: make([]comm.Stats, c.k+1), landed: make(chan struct{})}
	f.ctx, f.cancel = b.bounded(rd)
	f.ran.Add(len(members))
	rd.passesMu.Lock()
	rd.passes[uint32(req.id)] = f
	rd.passesMu.Unlock()
	// The terminal goroutine alone sends on its peer, so the difference of
	// its counters across the scatter is the scatter's.
	before := p.Stats()
	f.start = time.Now()
	err = positionwise.Scatter(f.ctx, p, members, frame)
	c.recordPhase(req.trace, c.terminalRank(), -1, trace.PhaseBoundary, time.Since(f.start))
	scattered := make([]comm.Stats, c.k+1)
	scattered[c.terminalRank()] = sent(p.Stats().Sub(before))
	req.perDevice = addStats(req.perDevice, scattered)
	if err != nil {
		return f, err
	}
	var prev *flight
	if len(flights) > 0 {
		prev = flights[len(flights)-1]
	}
	rd.workers.Add(1)
	go func() {
		defer rd.workers.Done()
		defer close(f.landed)
		if prev != nil {
			<-prev.landed
			if prev.err != nil {
				f.err = prev.err // the links are out of step: the round is over
				return
			}
		}
		// The one receiver on the terminal's peer while passes are on the
		// mesh, so the difference of its counters is this pass's receipts.
		before := p.Stats()
		start := time.Now()
		f.out, f.seqErr, f.err = collect(f.ctx, p, b.ex.Pool(), members, replies)
		c.recordPhase(req.trace, c.terminalRank(), -1, trace.PhaseBoundary, time.Since(start))
		f.stats[c.terminalRank()] = received(p.Stats().Sub(before))
	}()
	return f, nil
}

// land resolves a pass whose collector has finished: a classify resolves
// here, and joined reports a generate that is now live. A corrupt reply
// retires or re-parks the request alone; a non-nil error is a mesh fault,
// fatal for the round, with the pass still to park.
func (b *batcher) land(rd *round, p comm.Peer, f *flight) (joined bool, err error) {
	c := b.c
	<-f.landed
	if f.err != nil {
		return false, f.err
	}
	defer f.cancel()
	// Every member has answered; each adds its traffic on its way to the
	// next frame.
	f.ran.Wait()
	req, g := f.req, f.req.gen
	rd.passesMu.Lock()
	delete(rd.passes, uint32(req.id))
	rd.passesMu.Unlock()
	req.perDevice = addStats(req.perDevice, f.stats)
	if f.seqErr != nil {
		c.metrics.attemptFailed(f.seqErr)
		// Every serving rank delivered (the bad partition was consumed, so
		// the streams stay aligned): retire or re-park this request alone —
		// the round goes on. A joiner's owner holds the new caches: drop them.
		if g != nil {
			if lerr := b.dropSeq(f.ctx, p, req); lerr != nil {
				return false, lerr
			}
		}
		b.retire(rd, req, f.seqErr)
		return false, nil
	}
	c.metrics.attemptOK(time.Since(f.start))
	if c.opts.MaxRetries > 0 {
		c.health.recordSuccess(rd.ranks) // a clean pass is the probe result for any probing rank
	}
	if g != nil {
		g.res.PrefillLatency += time.Since(f.start)
		g.joined(req, f.out)
		req.joinStats = b.snapshot()
		b.lastOwner = g.owner
		return true, nil
	}
	req.output, req.latency = f.out, time.Since(f.start)
	b.leaveLocked(rd, req, nil)
	return false, nil
}

// sent and received are the sending and the receiving half of s.
func sent(s comm.Stats) comm.Stats {
	return comm.Stats{BytesSent: s.BytesSent, MsgsSent: s.MsgsSent}
}

func received(s comm.Stats) comm.Stats {
	return comm.Stats{BytesRecv: s.BytesRecv, MsgsRecv: s.MsgsRecv}
}

// addStats adds s into sum, one entry per mesh rank, making sum if nil.
func addStats(sum, s []comm.Stats) []comm.Stats {
	if sum == nil {
		sum = make([]comm.Stats, len(s))
	}
	for r := range s {
		sum[r] = sum[r].Add(s[r])
	}
	return sum
}

// passFrame builds the frame of req's pass over the round's ranks, the order
// the ranks are members of it in, and what each member answers with
// (positionwise.Read.Replies). A join's owner is picked among the sequences
// owned — live or joining — taking turns from the owner last; it is the last
// member: it reads one row of every position's K/V, so it holds the slice that
// sees them all, and each rank's share of the scheme follows it to its place.
// The slices are positionwise.Slice's.
func (b *batcher) passFrame(rd *round, req *request, owned []*request, last int) ([]byte, []int, []partition.Range, error) {
	c := b.c
	ids, n := req.prefix(), 0
	if ids != nil {
		if err := c.cfg.CheckTokens(ids); err != nil {
			return nil, nil, nil, err
		}
		n = len(ids)
	} else {
		n = req.x.Rows()
	}
	scheme, err := c.passScheme(rd)
	if err != nil {
		return nil, nil, nil, err
	}
	kind, at, members, read := byte(readAll), 0, rd.ranks, positionwise.AllRows
	if req.gen != nil {
		shares := scheme.Ratios()
		req.gen.owner = pickOwner(rd.ranks, shares, owned, last)
		kind, at = readJoin, slices.Index(rd.ranks, req.gen.owner)
		members = memberOrder(rd.ranks, at)
		if scheme, err = partition.New(memberOrder(shares, at)); err != nil {
			return nil, nil, nil, err
		}
		read = positionwise.Read{One: true, Row: n - 1, At: len(members) - 1, Cache: true}
	}
	ranges, err := positionwise.Slice(c.models[0], scheme, n, req.gen != nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if req.gen == nil && req.pooled() {
		read = positionwise.Pooled(c.models[0].Classifier, ranges)
		kind, at = readPooled, read.At
	}
	return encodePass(kind, at, uint32(req.id), ranges, ids, req.x), members, read.Replies(ranges), nil
}

// memberOrder is serving (one entry per serving rank, in rank order) in the
// member order of a pass whose last member is serving rank number last: the
// rotation that ends there — the identity for last = len(serving)−1.
func memberOrder[T any](serving []T, last int) []T {
	return append(append(make([]T, 0, len(serving)), serving[last+1:]...), serving[:last+1]...)
}

// encodePass encodes an opPass frame (see the frame table above); the input is
// ids, or x when ids is nil.
func encodePass(kind byte, at int, seq uint32, ranges []partition.Range, ids []int, x *tensor.Matrix) []byte {
	size := 4 * len(ids)
	if ids == nil {
		size = tensor.EncodedSize(x.Rows(), x.Cols())
	}
	frame := make([]byte, passHeader+8*len(ranges), passHeader+8*len(ranges)+size)
	frame[0], frame[1], frame[2] = opPass, formIDs, kind
	binary.LittleEndian.PutUint16(frame[3:], uint16(at))
	binary.LittleEndian.PutUint32(frame[5:], seq)
	binary.LittleEndian.PutUint16(frame[9:], uint16(len(ranges)))
	for i, r := range ranges {
		binary.LittleEndian.PutUint32(frame[passHeader+8*i:], uint32(r.From))
		binary.LittleEndian.PutUint32(frame[passHeader+8*i+4:], uint32(r.To))
	}
	if ids != nil {
		return append(frame, positionwise.TokenFrame(ids)...)
	}
	frame[1] = formX
	return tensor.Encode(frame, x)
}

// passScheme is the scheme a pass's rows are sliced under and a joiner's
// owner is weighed by: the cluster's scheme on a full round, and on a degraded
// one the survivors' rates (rateScheme) — Voltage's position-wise partition
// makes any contiguous re-slice over them a valid plan, and every worker holds
// a full model replica from the shared seed, so the survivors run exactly the
// math a smaller cluster would.
func (c *Cluster) passScheme(rd *round) (*partition.Scheme, error) {
	if rd.live != nil {
		return c.rateScheme(rd.live)
	}
	return c.scheme, nil
}

// pickOwner places a joining sequence on the least-loaded of the round's
// ranks: load is the number of live sequences a rank already owns divided by
// its share of the scheme (shares[i] belongs to ranks[i]), so owned counts
// follow the scheme's ratios. Ties take turns — the first tied rank after
// `last`, the owner of the last sequence to join (or, while joins are on the
// mesh, of the last one scattered), wrapping round — so a batch narrower than
// the mesh still spreads its decode work over every rank with a share. A rank
// with no share is passed over.
func pickOwner(ranks []int, shares []float64, live []*request, last int) int {
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
		for _, req := range live {
			if req.gen.owner == ranks[i] {
				owned++
			}
		}
		if load := float64(owned) / shares[i]; load < bestLoad {
			best, bestLoad = ranks[i], load
		}
	}
	return best
}

// parsedPass is a validated opPass frame.
type parsedPass struct {
	seq    uint32
	last   int               // serving rank number of the last member (memberOrder)
	ranges []partition.Range // in member order
	read   positionwise.Read
	ids    []int          // form 0
	x      *tensor.Matrix // form 1, drawn from the pool
}

// parsePassFrame validates an opPass frame against a round of `serving` ranks
// and the model: opcode, input form, read kind, one range per serving rank
// contiguous from row 0, a reader among them — on a causal model one whose
// slice ends at N, since it has to see every row — and an input of exactly
// the positions the ranges cover: ids the embedding accepts (1 ≤ N ≤ MaxSeq,
// every id in the vocabulary) or an N×F matrix and nothing after it.
func parsePassFrame(frame []byte, serving int, m *model.Model, pool *tensor.MatrixPool) (parsedPass, error) {
	bad := func(format string, args ...any) (parsedPass, error) {
		return parsedPass{}, fmt.Errorf("%w: pass frame of %d bytes: %s", errBadFrame, len(frame), fmt.Sprintf(format, args...))
	}
	if len(frame) < passHeader || frame[0] != opPass {
		return bad("no header")
	}
	form, kind := frame[1], frame[2]
	at := int(binary.LittleEndian.Uint16(frame[3:]))
	r := int(binary.LittleEndian.Uint16(frame[9:]))
	pf := parsedPass{seq: binary.LittleEndian.Uint32(frame[5:]), last: r - 1}
	if r != serving || len(frame) < passHeader+8*r {
		return bad("%d ranges for %d serving ranks", r, serving)
	}
	pf.ranges = make([]partition.Range, r)
	n := 0
	for i := range pf.ranges {
		from := int(binary.LittleEndian.Uint32(frame[passHeader+8*i:]))
		to := int(binary.LittleEndian.Uint32(frame[passHeader+8*i+4:]))
		if from != n || to < from {
			return bad("range %d is [%d,%d), want it to start at row %d", i, from, to, n)
		}
		pf.ranges[i], n = partition.Range{From: from, To: to}, to
	}
	switch {
	case kind == readAll && at == 0:
	case kind == readPooled && at < r && n > 0:
		pf.read = positionwise.Read{One: true, Row: m.Classifier.PooledRow(n), At: at}
	case kind == readJoin && at < r && n > 0:
		pf.last, pf.read = at, positionwise.Read{One: true, Row: n - 1, At: r - 1, Cache: true}
	default:
		return bad("read kind %d at rank number %d of %d over %d positions", kind, at, r, n)
	}
	if pf.read.One && m.Causal() && pf.ranges[pf.read.At].To != n {
		return bad("the reader's slice %v of a causal pass does not end at row %d", pf.ranges[pf.read.At], n)
	}
	payload := frame[passHeader+8*r:]
	switch form {
	case formIDs:
		ids, err := positionwise.ParseTokens(payload, n, m.Embed)
		if err != nil {
			return bad("%v", err)
		}
		pf.ids = ids
	case formX:
		x, used, err := tensor.DecodePooled(pool, payload)
		if err != nil {
			return bad("%v", err)
		}
		if used != len(payload) || x.Rows() != n || n == 0 || x.Cols() != m.Cfg.F {
			pool.Put(x)
			return bad("a %dx%d input in %d of %d bytes for %d positions of %d features", x.Rows(), x.Cols(), used, len(payload), n, m.Cfg.F)
		}
		pf.x = x
	default:
		return bad("input form %d", form)
	}
	return pf, nil
}

// collect receives one partition from every serving rank — replies[i] is what
// ranks[i] answers with — draining all of them even after a failure so the
// FIFO streams stay aligned for the rest of the round, and stacks them. A
// corrupt, undecodable or wrong-sized partition — attributed to its sender —
// is returned as the request-local seqErr; any other receive failure is a
// mesh fault (err), fatal for the round.
func collect(ctx context.Context, p comm.Peer, pool *tensor.MatrixPool, ranks []int, replies []partition.Range) (out *tensor.Matrix, seqErr, err error) {
	parts := make([]*tensor.Matrix, 0, len(ranks))
	defer func() {
		for _, part := range parts {
			pool.Put(part)
		}
	}()
	for i, r := range ranks {
		got, err := p.Recv(ctx, r)
		if err != nil {
			if !errors.Is(err, comm.ErrCorrupt) {
				return nil, nil, err
			}
			if seqErr == nil {
				seqErr = err
			}
			continue // frame consumed; keep draining the other ranks
		}
		part, _, err := tensor.DecodePooled(pool, got)
		comm.ReleaseBuffer(got)
		if err == nil && part.Rows() != replies[i].Len() {
			pool.Put(part)
			err = fmt.Errorf("cluster: a partition of %d rows for the range %v", part.Rows(), replies[i])
		}
		if err != nil {
			if seqErr == nil {
				seqErr = &comm.RemoteError{Rank: r, Err: err} // hostile payload on a delivered frame
			}
			continue
		}
		parts = append(parts, part)
	}
	if seqErr != nil {
		return nil, seqErr, nil
	}
	out, err = tensor.ConcatRows(parts...)
	return out, nil, err
}

// retire handles a request-local pass failure (its own reply arrived corrupt):
// the blamed sender is recorded with the health machinery, and the request
// alone retries at the next boundary or resolves — the round goes on.
func (b *batcher) retire(rd *round, req *request, cause error) {
	c := b.c
	if c.opts.MaxRetries > 0 {
		if r, ok := comm.RemoteRank(cause); ok {
			c.health.recordFailure(r, cause)
		}
		if retryable(cause) && req.attempts < 1+c.opts.MaxRetries {
			b.requeue([]*request{b.park(rd, req)})
			return
		}
	}
	b.leaveLocked(rd, req, fmt.Errorf("cluster: pass: %w", cause))
}

// park pulls a surviving request out of a dead round: the residency it
// already paid (decode time, traffic) folds into its result, a generate's
// committed tokens stay for the resume prefill, and parkedAt starts the
// recovery span. The caller moves it back to pending via requeue.
func (b *batcher) park(rd *round, req *request) *request {
	b.accumulate(rd, req)
	if req.gen != nil {
		req.gen.last = nil
	}
	req.parkedAt = time.Now()
	return req
}

// leave removes a resolved sequence from the batch, telling its owner to
// drop its caches. cause nil is normal completion. The returned error is a
// mesh fault encountered while notifying (the sequence itself is resolved
// either way).
func (b *batcher) leave(rd *round, p comm.Peer, req *request, cause error) error {
	sendErr := b.dropSeq(rd.ctx, p, req)
	b.leaveLocked(rd, req, cause)
	return sendErr
}

// dropSeq tells the sequence's owner to discard its caches.
func (b *batcher) dropSeq(ctx context.Context, p comm.Peer, req *request) error {
	var frame [5]byte
	frame[0] = opLeave
	binary.LittleEndian.PutUint32(frame[1:], uint32(req.id))
	return p.Send(ctx, req.gen.owner, frame[:])
}

// leaveLocked finalizes a request that was on the mesh — result, live slot,
// accounting — without touching the mesh (the workers either already dropped
// it, never held it, or are being torn down with the whole round).
func (b *batcher) leaveLocked(rd *round, req *request, cause error) {
	if req.gen != nil {
		b.release(req)
	}
	b.accumulate(rd, req)
	b.resolve(req, cause)
}

// resolve hands a request back to its caller with its accumulated result.
// Pending requests resolved by adjudicate come through here too — they hold
// no live slot, so resolve itself releases nothing.
func (b *batcher) resolve(req *request, cause error) {
	c := b.c
	b.observeTraffic()
	req.attempts = max(req.attempts, 1)
	if g := req.gen; g != nil {
		g.res.Tokens, g.res.Attempts, g.res.Degraded, g.res.PerDevice = g.tokens, req.attempts, req.degraded, req.perDevice
		if cause != nil && !errors.Is(cause, context.Canceled) {
			c.metrics.batchSeqFailed()
		}
	}
	c.metrics.observeRequest(req.attempts, req.degraded, cause)
	c.observeResolved(req, cause)
	req.finish(cause)
}

// accumulate folds the request's current residency on the mesh into its
// result: a sequence's decode time since it joined and the traffic every rank
// moved since (its pass's own traffic is counted as the pass scatters and
// lands), and the ranks it ran on. It is idempotent per residency (resident
// clears), so a parked-then-resolved request counts each round exactly once;
// the batch-leave counter mirrors the join counter by firing only for
// residencies that were scattered as joins.
func (b *batcher) accumulate(rd *round, req *request) {
	if !req.resident {
		return
	}
	req.resident = false
	if req.joinStats != nil {
		for r, now := range b.snapshot() {
			req.perDevice[r] = req.perDevice[r].Add(now.Sub(req.joinStats[r]))
		}
		req.joinStats = nil
	}
	req.live = rd.live
	if g := req.gen; g != nil {
		g.stopClock()
		// A sequence is degraded once it has been resident on fewer than K
		// workers; a classify reports its final attempt.
		req.degraded = req.degraded || rd.live != nil
		b.c.metrics.batchLeave()
	} else {
		req.degraded = rd.live != nil
	}
}

// snapshot reads every mesh rank's traffic counters.
func (b *batcher) snapshot() []comm.Stats {
	stats := make([]comm.Stats, len(b.c.peers))
	for r, p := range b.c.peers {
		stats[r] = p.Stats()
	}
	return stats
}

// observeTraffic feeds what every rank moved since the last call to the
// traffic counters.
func (b *batcher) observeTraffic() {
	for r, now := range b.snapshot() {
		b.c.metrics.traffic(r, now.Sub(b.counted[r]))
		b.counted[r] = now
	}
}

// stepFrame encodes one owner's share of a fused decode step: the id and
// newest token of each sequence in idx — positions in live of the sequences
// this owner holds, in batch order.
func stepFrame(live []*request, idx []int) []byte {
	buf := make([]byte, 3+8*len(idx))
	buf[0] = opStep
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(idx)))
	for j, i := range idx {
		req := live[i]
		binary.LittleEndian.PutUint32(buf[3+8*j:], uint32(req.id))
		binary.LittleEndian.PutUint32(buf[7+8*j:], uint32(req.gen.tokens[len(req.gen.tokens)-1]))
	}
	return buf
}
