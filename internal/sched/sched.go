// Package sched is the inference gateway's admission scheduler: the tier
// that turns the cluster's raw Submit API into a *served* workload with
// throughput and latency SLOs.
//
// The cluster's own pending queue is a single bounded FIFO — it blocks
// an overloaded caller, serves passes in arrival order (a classify behind a
// burst of prefills waits for each of them to be scattered), and keeps no
// notion of deadlines. The scheduler sits in front of the engine and adds the
// serving policy the cluster deliberately does not have:
//
//   - bounded per-class queues (interactive vs. batch) with explicit load
//     shedding: a full queue rejects immediately with ErrQueueFull instead
//     of blocking the caller;
//   - per-request deadlines with deadline-aware ordering: within a class,
//     the request that will miss its SLO first runs first (EDF), and a
//     request whose deadline would expire before it could be served is
//     shed up front with ErrDeadlineBeforeService rather than wasting mesh
//     time on an answer nobody can use;
//   - fairness between classes: interactive requests are preferred, but
//     batch work is guaranteed one dispatch per InteractiveBurst
//     interactive dispatches, so generation never starves and
//     classification never waits behind an unbounded batch backlog;
//   - eager shedding on cluster degradation: when the health tracker
//     reports lost workers, batch traffic is shed at the door (and all
//     traffic once no worker survives) so the surviving capacity serves
//     the interactive SLO;
//   - graceful drain: Drain stops admission (new requests shed with
//     ErrDraining), lets queued and in-flight requests finish, and bounds
//     the wait with a context.
//
// Queued requests whose caller gives up are withdrawn: Do returns the
// caller's context error immediately and the entry is dropped from the
// queue — it never reaches the engine (mirroring the cluster loop's own
// canceled-in-queue drop).
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"voltage/internal/metrics"
)

// Typed shed errors. The HTTP gateway maps these onto 429/503; embedders
// match them with errors.Is.
var (
	// ErrQueueFull rejects a request whose class queue is at capacity —
	// the caller should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("sched: queue full")
	// ErrDeadlineBeforeService rejects a request whose deadline would
	// expire before the scheduler could serve it — running it would waste
	// mesh time on an answer nobody can use (HTTP 429).
	ErrDeadlineBeforeService = errors.New("sched: deadline expires before service")
	// ErrDraining rejects new requests while the scheduler drains for
	// shutdown (HTTP 503).
	ErrDraining = errors.New("sched: draining")
	// ErrDegraded sheds load because the cluster lost workers: batch
	// traffic under partial degradation, everything once no worker
	// survives (HTTP 503).
	ErrDegraded = errors.New("sched: cluster degraded")
)

// Class is a request's SLO class.
type Class int

// SLO classes.
const (
	// Interactive is latency-sensitive work: classification, single
	// embeddings — cheap requests that hold the mesh for one pass.
	Interactive Class = iota
	// Batch is throughput work: prefill-heavy generation, which stays on
	// the mesh for many rounds and is first to shed under pressure.
	Batch
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass resolves a class name ("interactive", "batch").
func ParseClass(s string) (Class, error) {
	switch s {
	case "interactive", "":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return 0, fmt.Errorf("sched: unknown class %q", s)
	}
}

// ClusterState is the health summary the scheduler sheds on.
type ClusterState struct {
	// Degraded reports at least one worker excluded from serving.
	Degraded bool
	// Dead reports no worker surviving at all.
	Dead bool
}

// Options configures a Scheduler. The zero value is usable: defaults are
// applied by New.
type Options struct {
	// InteractiveDepth bounds the interactive queue (default 64).
	InteractiveDepth int
	// BatchDepth bounds the batch queue (default 16).
	BatchDepth int
	// Workers is how many requests may be in service concurrently
	// (default 4). The engine beneath pipelines them through the mesh;
	// this bounds how many occupy its admission queue.
	Workers int
	// InteractiveBurst is the fairness ratio: at most this many
	// consecutive interactive dispatches while batch work waits
	// (default 4). 1 alternates strictly.
	InteractiveBurst int
	// DefaultDeadline is applied to jobs that carry none (default 0 =
	// unbounded).
	DefaultDeadline time.Duration
	// Health, when non-nil, is consulted at admission: Degraded sheds
	// batch work, Dead sheds everything (ErrDegraded).
	Health func() ClusterState
	// Registry, when non-nil, receives the gateway metric families
	// (per-class queue depth, time-in-queue, shed counts by cause).
	Registry *metrics.Registry
	// OnShed, when non-nil, observes every shed decision (the gateway
	// feeds these to the flight recorder). Called under the scheduler's
	// lock: it must be fast and must not call back into the scheduler.
	OnShed func(class Class, cause string)
}

// Job is one unit of admitted work.
type Job struct {
	// Class selects the queue and shed policy.
	Class Class
	// Deadline, when non-zero, is the caller's SLO: jobs are ordered
	// earliest-deadline-first and shed when it cannot be met. The job's
	// context is additionally bounded by it.
	Deadline time.Time
	// Est is the expected service time, used for the
	// deadline-before-service check (0 skips the estimate and sheds only
	// already-expired deadlines).
	Est time.Duration
	// EstFn, when non-nil, supersedes Est at each check (admission and the
	// pre-dispatch recheck). A batch-aware backend divides its serial
	// estimate by the current fused-batch width here, so shed-before-
	// service does not overestimate service time for fused decode steps.
	EstFn func() time.Duration
	// Run executes the request. waited is the time the job spent queued —
	// the gateway turns it into a queue span on the request trace. The
	// context carries the job's deadline and the caller's cancellation.
	Run func(ctx context.Context, waited time.Duration) error
}

// est resolves the job's service-time estimate at check time.
func (j Job) est() time.Duration {
	if j.EstFn != nil {
		return j.EstFn()
	}
	return j.Est
}

// item is one queued job.
type item struct {
	job  Job
	ctx  context.Context
	seq  uint64
	enq  time.Time
	dl   time.Time // zero = none
	idx  int       // heap index; -1 once dequeued or withdrawn
	err  error
	done chan struct{}
}

// classQueue is one class's bounded EDF heap. Jobs with deadlines order
// before jobs without; ties and deadline-free jobs fall back to admission
// order.
type classQueue struct {
	cap   int
	items []*item
}

func (q *classQueue) Len() int { return len(q.items) }

func (q *classQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	switch {
	case a.dl.IsZero() != b.dl.IsZero():
		return !a.dl.IsZero() // deadlines first
	case !a.dl.IsZero() && !a.dl.Equal(b.dl):
		return a.dl.Before(b.dl)
	default:
		return a.seq < b.seq
	}
}

func (q *classQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].idx = i
	q.items[j].idx = j
}

func (q *classQueue) Push(x any) {
	it := x.(*item)
	it.idx = len(q.items)
	q.items = append(q.items, it)
}

func (q *classQueue) Pop() any {
	n := len(q.items)
	it := q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	it.idx = -1
	return it
}

// shed causes, used both as metric label values and Stats keys.
const (
	shedFull     = "queue_full"
	shedDeadline = "deadline"
	shedDegraded = "degraded"
	shedDraining = "draining"
	shedCanceled = "canceled"
)

// Scheduler is the admission scheduler. Construct with New; all methods
// are safe for concurrent use.
type Scheduler struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [numClasses]*classQueue
	seq      uint64
	draining bool
	closed   bool
	inflight int
	// interactiveRun counts consecutive interactive dispatches since the
	// last batch dispatch — the fairness state.
	interactiveRun int

	// Lifetime accounting (mirrored into the metrics registry when one is
	// wired; kept here too so Stats works without metrics).
	admitted [numClasses]uint64
	served   [numClasses]uint64
	failed   [numClasses]uint64
	shed     map[string]uint64

	workers sync.WaitGroup

	m *gatewayMetrics
}

// New builds a scheduler and starts its worker pool.
func New(opts Options) *Scheduler {
	if opts.InteractiveDepth <= 0 {
		opts.InteractiveDepth = 64
	}
	if opts.BatchDepth <= 0 {
		opts.BatchDepth = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.InteractiveBurst <= 0 {
		opts.InteractiveBurst = 4
	}
	s := &Scheduler{
		opts: opts,
		shed: make(map[string]uint64),
		m:    newGatewayMetrics(opts.Registry),
	}
	s.cond = sync.NewCond(&s.mu)
	s.queues[Interactive] = &classQueue{cap: opts.InteractiveDepth}
	s.queues[Batch] = &classQueue{cap: opts.BatchDepth}
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Do admits job and blocks until it has run (returning Run's error) or was
// shed (returning the typed shed error). A caller context that ends while
// the job is still queued withdraws it — the job never runs and Do returns
// the context's error.
func (s *Scheduler) Do(ctx context.Context, job Job) error {
	if job.Run == nil {
		return fmt.Errorf("sched: nil Run")
	}
	if job.Class < 0 || job.Class >= numClasses {
		return fmt.Errorf("sched: unknown class %d", int(job.Class))
	}
	it, err := s.admit(ctx, job)
	if err != nil {
		return err
	}
	select {
	case <-it.done:
		return it.err
	case <-ctx.Done():
		if s.withdraw(it) {
			return ctx.Err()
		}
		// Already dispatched: the run sees the canceled context and
		// resolves shortly.
		<-it.done
		return it.err
	}
}

// admit applies the shed policy and enqueues the job.
func (s *Scheduler) admit(ctx context.Context, job Job) (*item, error) {
	now := time.Now()
	dl := job.Deadline
	if dl.IsZero() && s.opts.DefaultDeadline > 0 {
		dl = now.Add(s.opts.DefaultDeadline)
	}
	// The caller's context deadline is an SLO too: fold the tighter one in.
	if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
		dl = cdl
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining || s.closed:
		s.shedLocked(job.Class, shedDraining)
		return nil, ErrDraining
	case ctx.Err() != nil:
		s.shedLocked(job.Class, shedCanceled)
		return nil, ctx.Err()
	}
	if h := s.opts.Health; h != nil {
		state := h()
		if state.Dead || (state.Degraded && job.Class == Batch) {
			s.shedLocked(job.Class, shedDegraded)
			if state.Dead {
				return nil, fmt.Errorf("%w: no worker serving", ErrDegraded)
			}
			return nil, fmt.Errorf("%w: batch traffic shed while degraded", ErrDegraded)
		}
	}
	if !dl.IsZero() && now.Add(job.est()).After(dl) {
		s.shedLocked(job.Class, shedDeadline)
		return nil, ErrDeadlineBeforeService
	}
	q := s.queues[job.Class]
	if q.Len() >= q.cap {
		s.shedLocked(job.Class, shedFull)
		return nil, ErrQueueFull
	}
	s.seq++
	it := &item{
		job: job, ctx: ctx, seq: s.seq, enq: now, dl: dl,
		done: make(chan struct{}),
	}
	heap.Push(q, it)
	s.admitted[job.Class]++
	s.m.admitted(job.Class, q.Len())
	s.cond.Signal()
	return it, nil
}

// withdraw removes a still-queued item after its caller gave up. Returns
// false when the item was already dequeued (it will resolve via done).
func (s *Scheduler) withdraw(it *item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.idx < 0 {
		return false
	}
	q := s.queues[it.job.Class]
	heap.Remove(q, it.idx)
	s.shedLocked(it.job.Class, shedCanceled)
	s.m.depth(it.job.Class, q.Len())
	it.err = it.ctx.Err()
	close(it.done)
	return true
}

// shedLocked counts one shed decision. Callers hold s.mu.
func (s *Scheduler) shedLocked(class Class, cause string) {
	s.shed[cause]++
	s.m.shed(cause)
	if s.opts.OnShed != nil {
		s.opts.OnShed(class, cause)
	}
}

// next pops the job to run per the dispatch policy, blocking until one is
// available or the scheduler is done. Returns nil when the worker should
// exit (closed, or draining with empty queues).
func (s *Scheduler) next() *item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if it := s.pickLocked(); it != nil {
			s.inflight++
			return it
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// pickLocked applies the fairness policy: interactive first, but after
// InteractiveBurst consecutive interactive dispatches that made batch work
// wait, a waiting batch job takes the slot. Within a class the EDF heap
// orders the pop.
//
// The burst counter only measures interactive dispatches issued while
// batch work was actually queued behind them: it stays zero through an
// interactive-only stretch, so a batch job arriving fresh cannot cash in a
// stale "burst credit" and preempt interactive traffic it never waited
// behind.
func (s *Scheduler) pickLocked() *item {
	qi, qb := s.queues[Interactive], s.queues[Batch]
	if qb.Len() == 0 {
		s.interactiveRun = 0
	}
	var class Class
	switch {
	case qi.Len() == 0 && qb.Len() == 0:
		return nil
	case qi.Len() == 0:
		class = Batch
	case qb.Len() == 0:
		class = Interactive
	case s.interactiveRun >= s.opts.InteractiveBurst:
		class = Batch
	default:
		class = Interactive
	}
	if class == Interactive {
		if qb.Len() > 0 {
			s.interactiveRun++
		}
	} else {
		s.interactiveRun = 0
	}
	it := heap.Pop(s.queues[class]).(*item)
	s.m.depth(class, s.queues[class].Len())
	return it
}

// worker is one dispatch loop: pick, check, run, resolve.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		it := s.next()
		if it == nil {
			return
		}
		s.run(it)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
		s.cond.Broadcast() // wake Drain waiters and idle peers
	}
}

// run executes one dequeued job, applying the last-moment shed checks.
func (s *Scheduler) run(it *item) {
	waited := time.Since(it.enq)
	s.m.waited(it.job.Class, waited)
	var err error
	switch {
	case it.ctx.Err() != nil:
		// Withdrawn races aside, the caller is gone: don't touch the mesh.
		s.mu.Lock()
		s.shedLocked(it.job.Class, shedCanceled)
		s.mu.Unlock()
		err = it.ctx.Err()
	case !it.dl.IsZero() && time.Now().Add(it.job.est()).After(it.dl):
		// The queue wait consumed the deadline's slack: shed now instead
		// of starting work that cannot finish in time.
		s.mu.Lock()
		s.shedLocked(it.job.Class, shedDeadline)
		s.mu.Unlock()
		err = ErrDeadlineBeforeService
	default:
		ctx := it.ctx
		if !it.dl.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, it.dl)
			defer cancel()
		}
		err = it.job.Run(ctx, waited)
		s.mu.Lock()
		if err == nil {
			s.served[it.job.Class]++
		} else {
			s.failed[it.job.Class]++
		}
		s.m.served(it.job.Class, err)
		s.mu.Unlock()
	}
	it.err = err
	close(it.done)
}

// Drain stops admission and waits for queued plus in-flight work to
// finish. New requests shed with ErrDraining from the moment it is called.
// The context bounds the wait; on expiry the remaining queued jobs are
// failed with ErrDraining and ctx.Err() is returned. Drain is idempotent;
// after it returns the scheduler's workers have exited.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Budget exhausted: fail what is still queued and stop admitting.
		// In-flight jobs are abandoned to their own contexts — waiting for
		// them here could block past the caller's budget.
		s.mu.Lock()
		s.closed = true
		for _, q := range s.queues {
			for q.Len() > 0 {
				it := heap.Pop(q).(*item)
				s.shedLocked(it.job.Class, shedDraining)
				it.err = ErrDraining
				close(it.done)
			}
		}
		s.m.depth(Interactive, 0)
		s.m.depth(Batch, 0)
		s.cond.Broadcast()
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Close abandons everything: queued jobs fail with ErrDraining, workers
// exit once their current job finishes. Prefer Drain for graceful
// shutdown.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	for _, q := range s.queues {
		for q.Len() > 0 {
			it := heap.Pop(q).(*item)
			s.shedLocked(it.job.Class, shedDraining)
			it.err = ErrDraining
			close(it.done)
		}
	}
	s.m.depth(Interactive, 0)
	s.m.depth(Batch, 0)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}

// ClassStats is one class's point-in-time queue report.
type ClassStats struct {
	Class    string `json:"class"`
	Depth    int    `json:"depth"`
	Capacity int    `json:"capacity"`
	Admitted uint64 `json:"admitted"`
	Served   uint64 `json:"served"`
	Failed   uint64 `json:"failed"`
}

// Stats is the scheduler's point-in-time report, served on /v1/queue.
type Stats struct {
	Draining bool              `json:"draining"`
	Inflight int               `json:"inflight"`
	Workers  int               `json:"workers"`
	Classes  []ClassStats      `json:"classes"`
	Shed     map[string]uint64 `json:"shed,omitempty"`
}

// Stats reports the scheduler's current state.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Draining: s.draining,
		Inflight: s.inflight,
		Workers:  s.opts.Workers,
		Shed:     make(map[string]uint64, len(s.shed)),
	}
	for cause, n := range s.shed {
		st.Shed[cause] = n
	}
	for c := Class(0); c < numClasses; c++ {
		st.Classes = append(st.Classes, ClassStats{
			Class:    c.String(),
			Depth:    s.queues[c].Len(),
			Capacity: s.queues[c].cap,
			Admitted: s.admitted[c],
			Served:   s.served[c],
			Failed:   s.failed[c],
		})
	}
	return st
}
