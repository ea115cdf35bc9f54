package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"voltage/internal/comm"
	"voltage/internal/partition"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// The persistent serving runtime. A cluster serves requests with K+2
// long-lived goroutines instead of spawning K+1 per call:
//
//   - the dispatcher pulls admitted requests off the queue, tags every
//     worker loop with the request, and runs the terminal's input broadcast;
//   - K worker loops execute the strategy's device protocol for one request
//     at a time, in admission order;
//   - the collector drains the terminal's result side and completes
//     requests.
//
// Requests are sequenced, not locked: the dispatcher may broadcast request
// i+1 while the workers compute request i and the collector drains request
// i−1. The SPMD collectives stay correct because every role processes
// requests in the same admission order and every mesh link is FIFO — request
// identity rides on ordering, so the data plane carries byte-for-byte the
// same traffic as a lone blocking call and the paper's communication
// formulas stay directly measurable. The runner that interleaves terminal
// sends and receives (generation) is marked exclusive and fences the queue
// instead.
//
// Per-request traffic is attributed through comm.Scoped stat scopes — one
// per (request, device) — rather than by diffing the mesh's cumulative
// counters, which would double-count under overlap.

// errServingStopped reports submission to (or abandonment by) a closed
// cluster.
var errServingStopped = errors.New("cluster: serving stopped")

// Queue depths: the admission queue defaults to defaultQueueDepth
// (Options.QueueDepth overrides it), inflightDepth bounds how many
// requests may occupy the mesh at once (which in turn keeps per-link queues
// well under the transport's limits), admitDepth lets worker loops lag the
// dispatcher without blocking it.
const (
	defaultQueueDepth = 64
	inflightDepth     = 8
	admitDepth        = 16
)

// request is one in-flight unit of work flowing through the serving
// runtime.
type request struct {
	id     uint64
	runner strategyRunner

	// input is a classify request's. Batched generation (batch.go) carries
	// none here: its sequences flow through the batcher and join the mesh
	// request at step boundaries.
	input

	// scopes, when non-nil, pre-creates the per-rank stat scopes the
	// serving loops would otherwise open themselves — batched generation
	// snapshots them at each sequence's join and leave to carve
	// per-sequence traffic out of one long-lived request.
	scopes []*comm.ScopedPeer
	// noTimeout exempts the request from Options.RequestTimeout: the
	// batched-generate request lives as long as sequences keep arriving,
	// so per-sequence deadlines ride on each sequence's own context.
	noTimeout bool

	// Fault-tolerance state (see retry.go). live lists the worker ranks
	// serving this request (nil = all k); scheme overrides the cluster's
	// partition scheme for degraded attempts re-sliced over the survivors.
	// fenced requests own the mesh exclusively (like exclusive runners), so
	// a failed attempt's residual traffic can be flushed before the next
	// request enters — supervision sets it on every attempt.
	live     []int
	scheme   *partition.Scheme
	attempts int
	degraded bool
	fenced   bool
	// supervised attempts are counted as requests by their supervisor, not
	// by collect (which counts each as an attempt only).
	supervised bool

	// trace collects per-layer spans when Options.TraceRequests is set.
	trace *trace.RequestTrace

	// ctx governs the whole request; cancel releases every role on the
	// first error so no goroutine blocks on a dead request. idle, set on
	// batched-generate requests only, is the context a batch worker owning
	// no sequence waits for its next frame under: exempt from the per-op
	// watchdog (silence is not a fault there) and released by every abort —
	// including the fenced, watchdog-carrying ones that skip cancel, whose
	// idle ranks no watchdog would otherwise release.
	ctx      context.Context
	cancel   context.CancelFunc
	idle     context.Context
	stopIdle context.CancelFunc

	start      time.Time
	output     *tensor.Matrix
	latency    time.Duration
	admitStats comm.Stats
	perDevice  []comm.Stats // slot r written only by rank r (terminal = k)
	errs       []error      // same ownership discipline as perDevice

	workers sync.WaitGroup // one count per worker rank
	once    sync.Once
	err     error
	done    chan struct{}
}

// input is what a classify request carries, in one of three forms: token ids
// (each device embeds them itself; the caller reads the classifier's pooled
// row alone — a pass cut down to that row, answered with 1×F), the embedded
// matrix x read the same way (pooledX), or x with every row read.
type input struct {
	x       *tensor.Matrix
	ids     []int
	pooledX bool // x alone: ids are always read at the pooled row
}

// pooled reports whether the caller reads the classifier's pooled row alone.
func (in input) pooled() bool { return in.ids != nil || in.pooledX }

// rows is the input's length in positions.
func (in input) rows() int {
	if in.ids != nil {
		return len(in.ids)
	}
	return in.x.Rows()
}

// scope returns rank's stat scope for this request: the pre-created one
// when the submitter needs shared visibility (batched generation), a fresh
// one otherwise.
func (req *request) scope(c *Cluster, rank int) *comm.ScopedPeer {
	if req.scopes != nil {
		return req.scopes[rank]
	}
	return comm.Scoped(c.peers[rank])
}

// finish resolves the request exactly once.
func (req *request) finish(err error) {
	req.once.Do(func() {
		req.err = err
		close(req.done)
		req.cancel()
	})
}

// liveRanks returns the worker ranks serving this request.
func (req *request) liveRanks(c *Cluster) []int {
	if req.live == nil {
		return c.allRanks()
	}
	return req.live
}

// liveIndex returns rank's position in the request's live set, or -1 when
// the rank sits this request out (it is excluded from a degraded attempt).
func (req *request) liveIndex(c *Cluster, rank int) int {
	if req.live == nil {
		return rank
	}
	for i, r := range req.live {
		if r == rank {
			return i
		}
	}
	return -1
}

// partitionScheme returns the scheme partitioning this request's positions.
// submit pins the installed scheme on every request (and degraded attempts
// re-slice their own), so the fallback read only covers requests built
// outside the submit path.
func (req *request) partitionScheme(c *Cluster) *partition.Scheme {
	if req.scheme != nil {
		return req.scheme
	}
	return c.currentScheme()
}

// abort releases the other roles of a failed request. Fenced attempts
// whose every op carries a watchdog skip the immediate cancel: each
// blocked role then resolves within OpTimeout with an attributed timeout
// naming the rank it waited on — the evidence blame voting needs. An
// early cancel would collapse those votes into anonymous context.Canceled
// knock-ons, letting whichever watchdog happened to fire first (possibly
// the faulty rank's own, blaming an innocent peer) decide the vote alone.
// finish still cancels once the request resolves, so nothing outlives it.
func (c *Cluster) abort(req *request) {
	if req.stopIdle != nil {
		req.stopIdle()
	}
	if req.fenced && c.opts.OpTimeout > 0 {
		return
	}
	req.cancel()
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

// wait blocks until the request resolves, the cluster closes, or ctx ends.
func (p *Pending) wait(ctx context.Context) error {
	select {
	case <-p.req.done:
		return p.req.err
	case <-p.c.serveCtx.Done():
		select {
		case <-p.req.done: // resolution raced the shutdown; prefer it
			return p.req.err
		default:
			return errServingStopped
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until the request completes and returns its result.
func (p *Pending) Wait(ctx context.Context) (*Result, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	req := p.req
	attempts := req.attempts
	if attempts == 0 {
		attempts = 1
	}
	// A nil live set means "full cluster"; an empty one means the terminal
	// served the request alone, so the distinction must survive the copy.
	var live []int
	if req.live != nil {
		live = append(make([]int, 0, len(req.live)), req.live...)
	}
	return &Result{
		ID:        req.id,
		Output:    req.output,
		Latency:   req.latency,
		PerDevice: append([]comm.Stats(nil), req.perDevice...),
		Strategy:  StrategyVoltage,
		Attempts:  attempts,
		Degraded:  req.degraded,
		Live:      live,
		Trace:     req.trace,
	}, nil
}

// Serve starts the persistent serving goroutines. It is idempotent and is
// called implicitly by the first Submit; clusters that never serve never
// spawn them.
func (c *Cluster) Serve() {
	c.serveOnce.Do(func() {
		c.flight.Eventf("serving", -1, "serving runtime started: %d workers + terminal, max batch %d",
			c.k, c.maxBatch())
		for r := 0; r < c.k; r++ {
			go c.workerLoop(r)
		}
		go c.dispatchLoop()
		go c.collectLoop()
	})
}

// Submit admits one inference request — the paper's pass: x scattered, every
// one of its N rows back in Result.Output — and returns immediately with its
// handle. Requests execute in admission order; many may be in flight at
// once, overlapping the terminal's I/O for one request with the workers'
// compute for another.
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
	// The ids are read again at dispatch and by every retry: keep a copy.
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
	if c.opts.MaxRetries > 0 {
		return c.submitSupervised(ctx, in)
	}
	return c.submit(ctx, &request{runner: voltageRunner{}, input: in})
}

// submit finalizes the request's bookkeeping and enqueues it.
func (c *Cluster) submit(ctx context.Context, req *request) (*Pending, error) {
	c.Serve()
	if req.scheme == nil {
		// Pin the installed scheme for the request's whole lifetime: every
		// rank partitions identically, and an adaptive install mid-flight
		// only affects work admitted after it (the between-requests safe
		// boundary). Degraded attempts arrive with their own re-slice.
		req.scheme = c.currentScheme()
	}
	req.id = c.nextID.Add(1)
	if c.opts.TraceRequests {
		req.trace = trace.NewRequestTrace()
		req.trace.SetID(req.id)
	}
	req.done = make(chan struct{})
	req.errs = make([]error, c.k+1)
	req.perDevice = make([]comm.Stats, c.k+1)
	if d := c.opts.RequestTimeout; d > 0 && !req.noTimeout {
		// The deadline bounds one attempt end to end; a drop anywhere in the
		// mesh resolves as comm.ErrTimeout (normalized in collect) instead of
		// hanging the serving loops.
		deadlineCtx, deadlineCancel := context.WithTimeout(ctx, d)
		req.ctx, req.cancel = context.WithCancel(deadlineCtx)
		inner := req.cancel
		req.cancel = func() { inner(); deadlineCancel() }
	} else {
		req.ctx, req.cancel = context.WithCancel(ctx)
	}
	if _, batch := req.runner.(batchRunner); batch {
		req.idle, req.stopIdle = context.WithCancel(comm.Unwatched(req.ctx))
	}
	req.workers.Add(c.k)
	// Deterministic fast-fail: a select with a ready queue slot could
	// otherwise accept a request after Close.
	if c.serveCtx.Err() != nil {
		req.cancel()
		return nil, errServingStopped
	}
	select {
	case c.queue <- req:
		c.metrics.queueLength(len(c.queue))
		return &Pending{c: c, req: req}, nil
	case <-c.serveCtx.Done():
		req.cancel()
		return nil, errServingStopped
	case <-ctx.Done():
		req.cancel()
		return nil, ctx.Err()
	}
}

// dispatchLoop sequences admitted requests into the mesh.
func (c *Cluster) dispatchLoop() {
	ex := comm.NewExchange(c.pool)
	for {
		select {
		case req := <-c.queue:
			c.metrics.queueLength(len(c.queue))
			if err := req.ctx.Err(); err != nil {
				// The caller abandoned the request while it waited in the
				// queue: drop it here instead of spending a mesh slot
				// broadcasting input nobody will collect. These resolve with
				// the caller's context error and are counted only under
				// voltage_requests_canceled_total — they report caller
				// behaviour, not the workload.
				c.metrics.canceledInQueue()
				req.finish(err)
				continue
			}
			if !c.dispatch(req, ex) {
				c.drainQueue()
				return
			}
		case <-c.serveCtx.Done():
			c.drainQueue()
			return
		}
	}
}

// dispatch tags every worker loop with the request and runs the terminal's
// admission side. Returns false when the cluster shut down mid-dispatch.
func (c *Cluster) dispatch(req *request, ex *comm.Exchange) bool {
	for r := 0; r < c.k; r++ {
		select {
		case c.admitCh[r] <- req:
		case <-c.serveCtx.Done():
			req.finish(errServingStopped)
			return false
		}
	}
	if !req.runner.exclusive() {
		scope := comm.Scoped(c.peers[c.terminalRank()])
		req.start = time.Now()
		err := req.runner.admit(req.ctx, c, scope, ex, req)
		c.recordPhase(req, c.terminalRank(), -1, trace.PhaseBoundary, time.Since(req.start))
		if err != nil {
			req.errs[c.k] = err
			c.abort(req) // unblock workers waiting on input
		}
		req.admitStats = scope.Stats()
	}
	select {
	case c.collectCh <- req:
	case <-c.serveCtx.Done():
		req.finish(errServingStopped)
		return false
	}
	if req.runner.exclusive() || req.fenced {
		// The exclusive terminal protocol interleaves sends and receives,
		// and fenced (fault-tolerant) attempts need failure isolation, so
		// nothing else may enter the mesh until the request resolves. The
		// fence stalls every queued request behind it — generation blocking
		// classification traffic — so its frequency and duration are
		// metered for gateway operators.
		fenceStart := time.Now()
		c.metrics.fenceBegin(req.runner.exclusive())
		defer func() { c.metrics.fenceEnd(time.Since(fenceStart)) }()
		select {
		case <-req.done:
			if req.err != nil {
				// An aborted protocol can leave undelivered messages queued
				// on the FIFO links; flush so the next request's streams
				// start aligned.
				c.flushResidue()
			}
		case <-c.serveCtx.Done():
			// Shutdown landed mid-attempt. The abandoned attempt's residue
			// must still drain — before this fix it stayed queued, pinning
			// pooled buffers past Close. finish is once-guarded, so racing
			// the collector (which may be resolving the request right now,
			// or may already have exited without adopting it) is harmless;
			// either way the request is resolved before the flush runs.
			req.finish(errServingStopped)
			c.flushResidue()
			return false
		}
	}
	return true
}

// flushResidue drops whatever undelivered messages an aborted attempt left
// queued on the FIFO links, so the next request's streams start aligned.
// The flush goes through the wrapped peer stack (flushing the raw mesh
// directly would bypass any state a wrapper layers on top); when an opaque
// WrapTransport hides the Flusher, it falls back to the raw mesh so the
// links still drain.
func (c *Cluster) flushResidue() {
	if comm.TryFlush(c.peers[0]) {
		return
	}
	c.mesh[0].Flush()
}

// recordPhase feeds one timed step to every observer: the request's span
// trace, the phase counters, and the rolling per-rank profile (a nil trace
// is a no-op). layer is -1 for boundary work that belongs to no layer.
func (c *Cluster) recordPhase(req *request, rank, layer int, phase trace.Phase, d time.Duration) {
	req.trace.Add(rank, layer, phase, d)
	c.metrics.phase(phase, d)
	c.obs.RecordPhase(rank, phase, d)
}

// drainQueue fails every queued-but-undispatched request at shutdown.
func (c *Cluster) drainQueue() {
	for {
		select {
		case req := <-c.queue:
			req.finish(errServingStopped)
		default:
			return
		}
	}
}

// workerLoop is rank's persistent device goroutine: it executes the device
// side of each tagged request, in admission order.
func (c *Cluster) workerLoop(rank int) {
	ex := comm.NewExchange(c.pool)
	for {
		select {
		case req := <-c.admitCh[rank]:
			scope := req.scope(c, rank)
			err := req.runner.worker(req.ctx, c, scope, ex, rank, req)
			req.errs[rank] = err
			req.perDevice[rank] = scope.Stats()
			if err != nil {
				c.abort(req) // release the other roles
			}
			req.workers.Done()
		case <-c.serveCtx.Done():
			// Unblock the collector for requests this loop will never run.
			for {
				select {
				case req := <-c.admitCh[rank]:
					req.errs[rank] = errServingStopped
					req.workers.Done()
				default:
					return
				}
			}
		}
	}
}

// collectLoop completes requests: it drains the terminal's result side,
// waits for the workers, and resolves the handle.
func (c *Cluster) collectLoop() {
	ex := comm.NewExchange(c.pool)
	for {
		select {
		case req := <-c.collectCh:
			c.collect(req, ex)
		case <-c.serveCtx.Done():
			for {
				select {
				case req := <-c.collectCh:
					req.finish(errServingStopped)
				default:
					return
				}
			}
		}
	}
}

// collect runs the terminal's result side of one request and finalizes its
// latency, stats, and error.
func (c *Cluster) collect(req *request, ex *comm.Exchange) {
	scope := req.scope(c, c.terminalRank())
	if req.runner.exclusive() {
		req.start = time.Now()
	}
	drainStart := time.Now()
	err := req.runner.collect(req.ctx, c, scope, ex, req)
	req.latency = time.Since(req.start)
	c.recordPhase(req, c.terminalRank(), -1, trace.PhaseBoundary, time.Since(drainStart))
	if err != nil {
		c.abort(req) // release workers blocked on a failed terminal
		if req.errs[c.k] == nil {
			req.errs[c.k] = err
		}
	}
	req.workers.Wait()
	req.perDevice[c.k] = req.admitStats.Add(scope.Stats())
	cause := c.rootCause(req)
	// Every dispatched attempt is observed here; the caller-visible request
	// is observed here too unless a supervisor owns it (retry.go), which
	// counts the request once its attempts conclude.
	c.metrics.observeAttempt(req.latency, req.perDevice, cause)
	if !req.supervised {
		c.metrics.observeRequest(1, req.degraded, cause)
	}
	c.observeResolved(req, cause)
	req.finish(cause)
}

// rootCause elects the request's reported error from its per-role slots.
// Attributed errors (comm.RemoteError names a culprit rank) outrank plain
// failures, which outrank deadline expiries, which outrank the secondary
// context.Canceled knock-ons that every other role resolves with once the
// request context is torn down. A deadline expiry from the per-request
// watchdog is normalized to the typed comm.ErrTimeout so callers (and the
// retry supervisor) can match it with errors.Is.
func (c *Cluster) rootCause(req *request) error {
	var first error
	rank := -1
	for r, e := range req.errs {
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
	return fmt.Errorf("cluster: rank %d (%s): %w", rank, req.runner.name(), first)
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
	return 0 // context.Canceled — a knock-on from the shared request cancel
}
