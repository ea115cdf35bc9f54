package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/tensor"
)

// Chaos suite: fault-injected serving. Every test here runs requests over a
// mesh with a deliberately broken transport (drops, corruption, stalls,
// dead devices) and asserts the three fault-tolerance guarantees: every
// request resolves (no hangs), failures carry typed causes
// (comm.ErrTimeout / comm.ErrCorrupt / comm.ErrInjected), and degraded
// retries produce outputs bit-identical to a healthy cluster of the
// surviving size. scripts/ci.sh runs this file under -race -count=2.
//
// Communication-volume assertions are deliberately absent: injected drops
// remove whole messages and retries move extra traffic, so the paper's
// formulas do not hold on a flaky mesh (see comm.FlakyPeer).

// wrapRank returns a WrapTransport hook applying wrap to one rank only.
func wrapRank(target int, wrap func(p comm.Peer) comm.Peer) func(int, comm.Peer) comm.Peer {
	return func(rank int, p comm.Peer) comm.Peer {
		if rank == target {
			return wrap(p)
		}
		return p
	}
}

func containsRank(live []int, rank int) bool {
	for _, r := range live {
		if r == rank {
			return true
		}
	}
	return false
}

// healthyReference computes the expected output of x on a fault-free
// cluster of k workers (identical seed, so identical model replicas). The
// reference cluster is torn down before returning so it never skews the
// chaos tests' goroutine-baseline checks.
func healthyReference(t *testing.T, k, n int) *tensor.Matrix {
	t.Helper()
	c, err := NewMem(model.Tiny(), k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, n))
	if err != nil {
		t.Fatalf("healthy reference (k=%d): %v", k, err)
	}
	return res.Output
}

func TestKilledWorkerDegradesToSurvivorsBitIdentical(t *testing.T) {
	// Kill worker 2 (every send fails) on a 3-worker cluster: the request
	// must complete transparently on the two survivors, the Result must
	// report the retry and degradation, and the output must match a healthy
	// 2-worker cluster bit for bit.
	const n = 9
	c := newTiny(t, 3, Options{
		MaxRetries:    2,
		WrapTransport: wrapRank(2, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, FailSendAfter: 1} }),
	})
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, n))
	if err != nil {
		t.Fatalf("killed worker should degrade, not fail: %v", err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one failure, one degraded success)", res.Attempts)
	}
	if !res.Degraded {
		t.Error("result not marked degraded")
	}
	if len(res.Live) != 2 || containsRank(res.Live, 2) {
		t.Errorf("live = %v, want the survivors [0 1]", res.Live)
	}
	if want := healthyReference(t, 2, n); !res.Output.Equal(want) {
		t.Error("degraded output differs from a healthy 2-worker cluster")
	}

	// Health: rank 2 excluded with a typed cause; survivors healthy.
	health := c.Health()
	if health[2].State != Unhealthy || health[2].Failures < 1 {
		t.Errorf("rank 2 health = %+v, want unhealthy with a recorded failure", health[2])
	}
	if !errors.Is(health[2].LastErr, comm.ErrInjected) {
		t.Errorf("rank 2 blamed cause = %v, want ErrInjected", health[2].LastErr)
	}
	for _, r := range []int{0, 1} {
		if health[r].State != Healthy {
			t.Errorf("rank %d health = %v, want healthy", r, health[r].State)
		}
	}

	// Later requests skip the dead rank from the start: no extra attempts.
	res2, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, n))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Attempts != 1 || !res2.Degraded || containsRank(res2.Live, 2) {
		t.Errorf("follow-up request: attempts=%d degraded=%v live=%v, want a clean first-try run on the survivors",
			res2.Attempts, res2.Degraded, res2.Live)
	}
}

func TestDroppedMessageResolvesAsErrTimeout(t *testing.T) {
	// A lossy link with no transport recovery (every send from rank 0
	// silently vanishes) must resolve the request as a typed ErrTimeout
	// within Options.RequestTimeout — never a hang.
	c := newTiny(t, 2, Options{
		RequestTimeout: 400 * time.Millisecond,
		WrapTransport:  wrapRank(0, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, DropEvery: 1} }),
	})
	start := time.Now()
	_, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 8))
	if !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to resolve the drop", elapsed)
	}
}

func TestCorruptedFrameResolvesAsErrCorrupt(t *testing.T) {
	// A corrupted payload must be caught by the frame checksum and
	// attributed to its sender — never decoded into wrong results.
	c := newTiny(t, 2, Options{
		WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, CorruptEvery: 1} }),
	})
	_, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 8))
	if !errors.Is(err, comm.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if r, ok := comm.RemoteRank(err); !ok || r != 0 {
		t.Fatalf("corruption should blame rank 0, got (%d, %v)", r, ok)
	}
	if got := c.Metrics().Counter("voltage_frames_corrupt_total"); got < 1 {
		t.Errorf("voltage_frames_corrupt_total = %v after a corrupted frame, want >= 1", got)
	}
}

func TestStalledWorkerTimesOutAndDegrades(t *testing.T) {
	// A hung device (receives block forever) is caught by the per-op
	// watchdog, blamed by majority vote, and excluded; the request
	// completes on whatever survives, matching a healthy cluster of that
	// size.
	const n = 9
	c := newTiny(t, 3, Options{
		OpTimeout:      150 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		MaxRetries:     2,
		WrapTransport:  wrapRank(1, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, StallRecvAfter: 1} }),
	})
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, n))
	if err != nil {
		t.Fatalf("stalled worker should degrade, not fail: %v", err)
	}
	if !res.Degraded || res.Attempts < 2 {
		t.Errorf("attempts=%d degraded=%v, want a degraded retry", res.Attempts, res.Degraded)
	}
	if containsRank(res.Live, 1) || len(res.Live) == 0 {
		t.Fatalf("live = %v, want survivors excluding the stalled rank 1", res.Live)
	}
	if want := healthyReference(t, len(res.Live), n); !res.Output.Equal(want) {
		t.Errorf("degraded output differs from a healthy %d-worker cluster", len(res.Live))
	}
	if h := c.Health()[1]; h.State != Unhealthy {
		t.Errorf("stalled rank health = %v, want unhealthy", h.State)
	}
}

func TestAllWorkersDeadFallsBackToTerminal(t *testing.T) {
	// With every worker dead the terminal serves the request alone from its
	// own replica: degraded, zero live workers, correct output.
	c := newTiny(t, 1, Options{
		MaxRetries:    2,
		WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, FailSendAfter: 1} }),
	})
	x := embedTiny(t, c, 6)
	res, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatalf("terminal fallback should serve the request: %v", err)
	}
	if !res.Degraded || len(res.Live) != 0 || res.Live == nil {
		t.Errorf("degraded=%v live=%v, want degraded with an empty (non-nil) live set", res.Degraded, res.Live)
	}
	want, err := c.Model(0).ForwardFeatures(x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(want) {
		t.Error("terminal-fallback output differs from a local forward pass")
	}
}

// switchablePeer injects send failures that can be turned off at runtime —
// a device that crashes and later comes back.
type switchablePeer struct {
	comm.Peer
	fail atomic.Bool
}

func (s *switchablePeer) Send(ctx context.Context, to int, data []byte) error {
	if s.fail.Load() {
		return comm.ErrInjected
	}
	return s.Peer.Send(ctx, to, data)
}

func TestProbationRecoversHealedWorker(t *testing.T) {
	// A failed rank is excluded, but after the ProbeAfter window it is
	// offered a probing request; if the fault has cleared it recovers to
	// healthy and full-cluster serving resumes.
	sw := &switchablePeer{}
	c := newTiny(t, 2, Options{
		MaxRetries: 2,
		ProbeAfter: 30 * time.Millisecond,
		WrapTransport: wrapRank(1, func(p comm.Peer) comm.Peer {
			sw.Peer = p
			return sw
		}),
	})
	sw.fail.Store(true)
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || containsRank(res.Live, 1) {
		t.Fatalf("first request should degrade past rank 1: degraded=%v live=%v", res.Degraded, res.Live)
	}
	if h := c.Health()[1]; h.State != Unhealthy {
		t.Fatalf("rank 1 health = %v, want unhealthy", h.State)
	}

	sw.fail.Store(false) // the device heals
	time.Sleep(50 * time.Millisecond)

	res2, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded || res2.Attempts != 1 {
		t.Errorf("probing request: attempts=%d degraded=%v, want a clean full-cluster run", res2.Attempts, res2.Degraded)
	}
	if h := c.Health()[1]; h.State != Healthy {
		t.Errorf("healed rank health = %v, want healthy after a probing success", h.State)
	}
}

func TestOverlappingSubmitsUnderChaosAllResolve(t *testing.T) {
	// Many concurrent requests against a cluster whose worker 1 dies after
	// its first few sends: every request must resolve (no hangs, no lost
	// handles), later ones transparently degraded — and after Close the
	// goroutine count must return to its baseline (no leaked supervisors,
	// workers, or stalled collectives).
	baseline := runtime.NumGoroutine()

	c, err := NewMem(model.Tiny(), 3, Options{
		MaxRetries:     3,
		RequestTimeout: 10 * time.Second,
		OpTimeout:      time.Second,
		WrapTransport:  wrapRank(1, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, FailSendAfter: 3} }),
	})
	if err != nil {
		t.Fatal(err)
	}

	const requests = 8
	pends := make([]*Pending, requests)
	lengths := make([]int, requests)
	for i := range pends {
		lengths[i] = 5 + i
		pend, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, lengths[i]))
		if err != nil {
			t.Fatal(err)
		}
		pends[i] = pend
	}
	degraded := 0
	for i, pend := range pends {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := pend.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("request %d did not survive the chaos: %v", i, err)
		}
		if res.Output == nil || res.Output.Rows() != lengths[i] {
			t.Fatalf("request %d: bad output", i)
		}
		if res.Degraded {
			degraded++
			if containsRank(res.Live, 1) {
				t.Fatalf("request %d degraded but still lists the dead rank: %v", i, res.Live)
			}
			if want := healthyReference(t, len(res.Live), lengths[i]); !res.Output.Equal(want) {
				t.Fatalf("request %d: degraded output differs from a healthy %d-worker cluster", i, len(res.Live))
			}
		}
	}
	if degraded == 0 {
		t.Fatal("fault never fired: no request degraded")
	}

	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	// Supervision must not retry logic errors: a shape-mismatch style
	// failure (here: caller cancellation) is final even with retries on.
	c := newTiny(t, 2, Options{MaxRetries: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Infer(ctx, StrategyVoltage, embedTiny(t, c, 5)); err == nil {
		t.Fatal("cancelled request should fail")
	}
	for _, h := range c.Health() {
		if h.State != Healthy || h.Failures != 0 {
			t.Fatalf("caller cancellation blamed a device: %+v", h)
		}
	}
}
