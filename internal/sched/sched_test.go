package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"voltage/internal/metrics"
)

// blockOne returns a job that parks in Run until release is closed,
// recording its start on started.
func blockOne(class Class, started chan<- struct{}, release <-chan struct{}) Job {
	return Job{Class: class, Run: func(ctx context.Context, _ time.Duration) error {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
}

// occupy fills the scheduler's single worker with a parked job and returns
// its release function plus the Do error channel.
func occupy(t *testing.T, s *Scheduler, class Class) (release func(), errCh <-chan error) {
	t.Helper()
	started := make(chan struct{}, 1)
	rel := make(chan struct{})
	ch := make(chan error, 1)
	go func() { ch <- s.Do(context.Background(), blockOne(class, started, rel)) }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the occupying job")
	}
	var once sync.Once
	return func() { once.Do(func() { close(rel) }) }, ch
}

func TestRunsAndReturnsErrors(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ran := false
	if err := s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error {
		ran = true
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("job never ran")
	}
	boom := errors.New("boom")
	if err := s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error {
		return boom
	}}); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	if err := s.Do(context.Background(), Job{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestQueueFullSheds(t *testing.T) {
	s := New(Options{Workers: 1, InteractiveDepth: 1})
	defer s.Close()
	release, occ := occupy(t, s, Interactive)

	// One fits in the queue, the second is shed immediately.
	queuedErr := make(chan error, 1)
	queued := Job{Run: func(context.Context, time.Duration) error { return nil }}
	go func() { queuedErr <- s.Do(context.Background(), queued) }()
	waitDepth(t, s, Interactive, 1)

	start := time.Now()
	err := s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on full queue = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shed took %v, want immediate rejection", d)
	}

	release()
	if err := <-occ; err != nil {
		t.Fatal(err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shed[shedFull] != 1 {
		t.Errorf("shed[queue_full] = %d, want 1", st.Shed[shedFull])
	}
}

// waitDepth polls until class's queue depth reaches want.
func waitDepth(t *testing.T, s *Scheduler, class Class, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, cs := range s.Stats().Classes {
			if cs.Class == class.String() && cs.Depth >= want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue %v never reached depth %d", class, want)
}

func TestDeadlineBeforeServiceSheds(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	err := s.Do(context.Background(), Job{
		Deadline: time.Now().Add(10 * time.Millisecond),
		Est:      time.Second,
		Run:      func(context.Context, time.Duration) error { t.Error("doomed job ran"); return nil },
	})
	if !errors.Is(err, ErrDeadlineBeforeService) {
		t.Fatalf("Do = %v, want ErrDeadlineBeforeService", err)
	}
	// The caller's context deadline is folded in as the job deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = s.Do(ctx, Job{Est: time.Second, Run: func(context.Context, time.Duration) error {
		t.Error("doomed job ran")
		return nil
	}})
	if !errors.Is(err, ErrDeadlineBeforeService) {
		t.Fatalf("Do with tight ctx = %v, want ErrDeadlineBeforeService", err)
	}
}

func TestEstFnSupersedesEst(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	// The static estimate alone would shed this job; a batch-aware EstFn
	// (serial estimate over the fused width) fits inside the deadline, so
	// the job must run.
	ran := false
	err := s.Do(context.Background(), Job{
		Deadline: time.Now().Add(500 * time.Millisecond),
		Est:      time.Second,
		EstFn:    func() time.Duration { return time.Second / 8 },
		Run:      func(context.Context, time.Duration) error { ran = true; return nil },
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if !ran {
		t.Fatal("job never ran")
	}
	// And the dynamic estimate can also shed where the static one would
	// not: a width collapse between submissions re-inflates service time.
	err = s.Do(context.Background(), Job{
		Deadline: time.Now().Add(100 * time.Millisecond),
		Est:      time.Millisecond,
		EstFn:    func() time.Duration { return time.Second },
		Run:      func(context.Context, time.Duration) error { t.Error("doomed job ran"); return nil },
	})
	if !errors.Is(err, ErrDeadlineBeforeService) {
		t.Fatalf("Do = %v, want ErrDeadlineBeforeService", err)
	}
}

func TestEDFOrderingWithinClass(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release, occ := occupy(t, s, Interactive)

	// Enqueue with deadlines out of order plus one deadline-free job; the
	// run order must be earliest-deadline-first, deadline-free last.
	var mu sync.Mutex
	var order []string
	now := time.Now()
	mk := func(name string, dl time.Time) chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- s.Do(context.Background(), Job{Deadline: dl, Run: func(context.Context, time.Duration) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			}})
		}()
		return ch
	}
	late := mk("late", now.Add(time.Hour))
	waitDepth(t, s, Interactive, 1)
	none := mk("none", time.Time{})
	waitDepth(t, s, Interactive, 2)
	soon := mk("soon", now.Add(time.Minute))
	waitDepth(t, s, Interactive, 3)

	release()
	<-occ
	for _, ch := range []chan error{late, none, soon} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"soon", "late", "none"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order = %v, want %v", order, want)
		}
	}
}

func TestWithdrawOnCallerCancel(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release, occ := occupy(t, s, Interactive)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.Do(ctx, Job{Run: func(context.Context, time.Duration) error {
			t.Error("withdrawn job ran")
			return nil
		}})
	}()
	waitDepth(t, s, Interactive, 1)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdraw did not resolve while the worker stayed busy")
	}
	if st := s.Stats(); st.Shed[shedCanceled] != 1 {
		t.Errorf("shed[canceled] = %d, want 1", st.Shed[shedCanceled])
	}
	release()
	<-occ
}

func TestFairnessBatchNotStarved(t *testing.T) {
	s := New(Options{Workers: 1, InteractiveBurst: 2, InteractiveDepth: 64, BatchDepth: 4})
	defer s.Close()
	release, occ := occupy(t, s, Interactive)

	var mu sync.Mutex
	var order []Class
	mk := func(class Class) chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- s.Do(context.Background(), Job{Class: class, Run: func(context.Context, time.Duration) error {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
				return nil
			}})
		}()
		return ch
	}
	// 6 interactive + 1 batch all queued before the worker frees up.
	var waits []chan error
	for i := 0; i < 6; i++ {
		waits = append(waits, mk(Interactive))
		waitDepth(t, s, Interactive, i+1)
	}
	waits = append(waits, mk(Batch))
	waitDepth(t, s, Batch, 1)

	release()
	<-occ
	for _, ch := range waits {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	// The batch job must run after at most InteractiveBurst interactive
	// dispatches (the occupying job already counted one toward the run).
	pos := -1
	for i, c := range order {
		if c == Batch {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("batch ran at position %d of %v, want within the first 3 dispatches", pos, order)
	}
}

// TestFairnessNoStaleBurstCredit is the PR-8 fairness regression: the
// burst counter must only advance while batch work is actually waiting. A
// batch job arriving after a long interactive-only stretch starts from a
// clean slate — it must NOT instantly preempt interactive work queued
// ahead of it on the strength of dispatches it never waited behind.
func TestFairnessNoStaleBurstCredit(t *testing.T) {
	s := New(Options{Workers: 1, InteractiveBurst: 2, InteractiveDepth: 64, BatchDepth: 4})
	defer s.Close()

	// Build a long interactive-only history: every one of these dispatches
	// happens with an empty batch queue, so none may earn burst credit.
	for i := 0; i < 6; i++ {
		if err := s.Do(context.Background(), Job{Class: Interactive, Run: func(context.Context, time.Duration) error {
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}

	// Park the worker, then queue one interactive job followed by the
	// first batch job this scheduler has ever seen.
	release, occ := occupy(t, s, Interactive)
	var mu sync.Mutex
	var order []Class
	record := func(class Class) chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- s.Do(context.Background(), Job{Class: class, Run: func(context.Context, time.Duration) error {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
				return nil
			}})
		}()
		return ch
	}
	iCh := record(Interactive)
	waitDepth(t, s, Interactive, 1)
	bCh := record(Batch)
	waitDepth(t, s, Batch, 1)

	release()
	<-occ
	if err := <-iCh; err != nil {
		t.Fatal(err)
	}
	if err := <-bCh; err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != Interactive || order[1] != Batch {
		t.Fatalf("dispatch order = %v, want [interactive batch]: the batch job consumed a stale burst credit", order)
	}
}

func TestDegradedSheds(t *testing.T) {
	var mu sync.Mutex
	state := ClusterState{}
	s := New(Options{Health: func() ClusterState {
		mu.Lock()
		defer mu.Unlock()
		return state
	}})
	defer s.Close()

	ok := func(class Class) error {
		return s.Do(context.Background(), Job{Class: class, Run: func(context.Context, time.Duration) error { return nil }})
	}
	// Healthy: both classes serve.
	if err := ok(Interactive); err != nil {
		t.Fatal(err)
	}
	if err := ok(Batch); err != nil {
		t.Fatal(err)
	}
	// Degraded: batch shed, interactive serves.
	mu.Lock()
	state = ClusterState{Degraded: true}
	mu.Unlock()
	if err := ok(Batch); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded batch = %v, want ErrDegraded", err)
	}
	if err := ok(Interactive); err != nil {
		t.Fatalf("degraded interactive = %v, want served", err)
	}
	// Dead: everything shed.
	mu.Lock()
	state = ClusterState{Degraded: true, Dead: true}
	mu.Unlock()
	if err := ok(Interactive); !errors.Is(err, ErrDegraded) {
		t.Fatalf("dead interactive = %v, want ErrDegraded", err)
	}
	if st := s.Stats(); st.Shed[shedDegraded] != 2 {
		t.Errorf("shed[degraded] = %d, want 2", st.Shed[shedDegraded])
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	s := New(Options{Workers: 1})
	release, occ := occupy(t, s, Interactive)

	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }})
	}()
	waitDepth(t, s, Interactive, 1)

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// New admissions shed with ErrDraining from the moment Drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do during drain = %v, want ErrDraining", err)
	}

	release()
	if err := <-occ; err != nil {
		t.Fatalf("in-flight job during drain = %v, want nil", err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued job during drain = %v, want served", err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

func TestDrainTimeoutFailsQueued(t *testing.T) {
	s := New(Options{Workers: 1})
	release, occ := occupy(t, s, Interactive)
	defer release()

	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }})
	}()
	waitDepth(t, s, Interactive, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck worker = %v, want DeadlineExceeded", err)
	}
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued job after drain timeout = %v, want ErrDraining", err)
	}
	release()
	if err := <-occ; err != nil {
		t.Fatalf("stuck job resolved %v, want nil once released", err)
	}
}

func TestMetricsMirror(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Workers: 1, InteractiveDepth: 1, Registry: reg})
	defer s.Close()
	release, occ := occupy(t, s, Interactive)

	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }})
	}()
	waitDepth(t, s, Interactive, 1)
	if err := s.Do(context.Background(), Job{Run: func(context.Context, time.Duration) error { return nil }}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	release()
	<-occ
	if err := <-queuedErr; err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := s.Do(context.Background(), Job{Class: Batch, Run: func(context.Context, time.Duration) error { return boom }}); !errors.Is(err, boom) {
		t.Fatalf("failing job = %v, want its own error", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(`voltage_gateway_admitted_total{class="interactive"}`); got != 2 {
		t.Errorf("admitted interactive = %v, want 2", got)
	}
	if failed, served := snap.Counter(`voltage_gateway_failed_total{class="batch"}`), snap.Counter(`voltage_gateway_served_total{class="batch"}`); failed != 1 || served != 0 {
		t.Errorf("batch failed = %v served = %v, want the one failing job counted failed only", failed, served)
	}
	if got := snap.Counter(`voltage_gateway_failed_total{class="interactive"}`); got != 0 {
		t.Errorf("failed interactive = %v, want 0", got)
	}
	if got := snap.Counter(`voltage_gateway_shed_total{cause="queue_full"}`); got != 1 {
		t.Errorf("shed queue_full = %v, want 1", got)
	}
	if got := snap.Counter(`voltage_gateway_served_total{class="interactive"}`); got != 2 {
		t.Errorf("served interactive = %v, want 2", got)
	}
	if h, ok := snap.Histograms[`voltage_gateway_queue_wait_seconds{class="interactive"}`]; !ok || h.Count != 2 {
		t.Errorf("queue wait histogram = %+v ok=%v, want 2 observations", h, ok)
	}
}
