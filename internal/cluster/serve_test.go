package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// TestConcurrentSubmitsMatchSequential is the serving runtime's core
// correctness claim: ≥8 overlapping requests of distinct lengths produce
// bit-identical outputs — and identical per-request traffic stats —
// to the same requests run back-to-back through blocking Infer on an
// identically seeded cluster. Run under -race via scripts/ci.sh.
func TestConcurrentSubmitsMatchSequential(t *testing.T) {
	const k = 3
	lengths := []int{5, 6, 7, 9, 10, 11, 13, 14, 15}

	// Sequential baseline.
	seq := newTiny(t, k, Options{})
	type want struct {
		n   int
		res *Result
	}
	var wants []want
	for _, n := range lengths {
		res, err := seq.Infer(context.Background(), StrategyVoltage, embedTiny(t, seq, n))
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{n: n, res: res})
	}

	// Concurrent: submit all nine before waiting on any.
	conc := newTiny(t, k, Options{})
	pends := make([]*Pending, len(wants))
	for i, w := range wants {
		x := embedTiny(t, conc, w.n)
		pend, err := conc.Submit(context.Background(), StrategyVoltage, x)
		if err != nil {
			t.Fatal(err)
		}
		pends[i] = pend
	}
	for i, pend := range pends {
		got, err := pend.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		w := wants[i]
		if got.Strategy != StrategyVoltage {
			t.Fatalf("request %d: strategy %v echoed", i, got.Strategy)
		}
		if !got.Output.Equal(w.res.Output) {
			t.Fatalf("request %d (n=%d): concurrent output differs from sequential", i, w.n)
		}
		if len(got.PerDevice) != k+1 {
			t.Fatalf("request %d: %d PerDevice entries", i, len(got.PerDevice))
		}
		for r := range got.PerDevice {
			if got.PerDevice[r] != w.res.PerDevice[r] {
				t.Fatalf("request %d rank %d: stats %+v, want %+v",
					i, r, got.PerDevice[r], w.res.PerDevice[r])
			}
		}
		if got.Latency <= 0 {
			t.Fatalf("request %d: latency %v", i, got.Latency)
		}
	}
	// IDs are unique and increasing in admission order.
	for i := 1; i < len(pends); i++ {
		if pends[i].ID() <= pends[i-1].ID() {
			t.Fatalf("ids not increasing: %d then %d", pends[i-1].ID(), pends[i].ID())
		}
	}
}

// TestPooledMatchesUnpooled drives the same requests repeatedly through
// the (always pooled) cluster and checks each against Algorithm 2 computed
// solo on Model(0), which allocates every activation fresh — bit-identical,
// where ForwardFeatures is not: a partition picks its own matmul
// association. Repeated submissions force matrix reuse, which must never
// leak stale values into outputs.
func TestPooledMatchesUnpooled(t *testing.T) {
	c := newTiny(t, 3, Options{})
	m := c.Model(0)
	for round := 0; round < 3; round++ {
		for _, n := range []int{6, 11} {
			x := embedTiny(t, c, n)
			got, err := c.Infer(context.Background(), StrategyVoltage, x)
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := c.scheme.Ranges(n)
			if err != nil {
				t.Fatal(err)
			}
			want := x
			for li := range m.Layers {
				parts := make([]*tensor.Matrix, len(ranges))
				for r, rg := range ranges {
					if parts[r], err = m.ForwardLayerPartition(li, want, rg); err != nil {
						t.Fatal(err)
					}
				}
				if want, err = tensor.ConcatRows(parts...); err != nil {
					t.Fatal(err)
				}
			}
			if !got.Output.Equal(want) {
				t.Fatalf("round %d n=%d: pooled output differs from the unpooled solo computation", round, n)
			}
		}
	}
}

// TestGenerateBetweenConcurrentInfers interleaves a generation with queued
// classification traffic: the loop serves both, pass by pass, without
// deadlock or cross-request corruption.
func TestGenerateBetweenConcurrentInfers(t *testing.T) {
	c, err := NewMem(model.TinyDecoder(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	x := embedTiny(t, c, 7)
	before, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}

	var pends []*Pending
	for i := 0; i < 4; i++ {
		pend, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, 7))
		if err != nil {
			t.Fatal(err)
		}
		pends = append(pends, pend)
	}
	gen, err := c.GenerateVoltage(context.Background(), []int{4, 8, 15}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTokens, err := ref.GenerateIncremental([]int{4, 8, 15}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTokens {
		if gen.Tokens[i] != wantTokens[i] {
			t.Fatalf("generation diverged at %d: %v vs %v", i, gen.Tokens, wantTokens)
		}
	}
	for i, pend := range pends {
		res, err := pend.Wait(context.Background())
		if err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
		if !res.Output.Equal(before.Output) {
			t.Fatalf("infer %d output corrupted by interleaved generation", i)
		}
	}
}

// TestSubmitAfterClose verifies shutdown semantics: submission to a closed
// cluster fails fast, and already-returned handles do not hang.
func TestSubmitAfterClose(t *testing.T) {
	c, err := NewMem(model.Tiny(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := embedTiny(t, c, 4)
	if _, err := c.Infer(context.Background(), StrategyVoltage, x); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Submit(context.Background(), StrategyVoltage, x); err == nil {
		t.Fatal("want error submitting to a closed cluster")
	}
	if _, err := c.Infer(context.Background(), StrategyVoltage, x); err == nil {
		t.Fatal("want error from Infer on a closed cluster")
	}
}

// TestScopedStatsSumToMeshTotals cross-checks the per-request attribution:
// the per-device stats of consecutive requests must sum to the mesh's
// cumulative counters.
func TestScopedStatsSumToMeshTotals(t *testing.T) {
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 8)
	var sum [3]comm.Stats // k+1 devices
	const rounds = 3
	for i := 0; i < rounds; i++ {
		res, err := c.Infer(context.Background(), StrategyVoltage, x)
		if err != nil {
			t.Fatal(err)
		}
		for r := range sum {
			sum[r] = sum[r].Add(res.PerDevice[r])
		}
	}
	// The per-request differences must account for every byte the mesh moved.
	for r := 0; r < 3; r++ {
		got := c.peers[r].Stats()
		if got != sum[r] {
			t.Fatalf("rank %d: mesh counters %+v, scoped sum %+v", r, got, sum[r])
		}
	}
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestCloseDuringFailedRoundLeavesNoResidue: when Close lands while a round
// is wedged mid-pass, the loop still ends the round the way every round ends —
// workers stopped, links flushed — so no frame stays queued on any link
// (pinning its pooled buffer) past Close, with retries on or off.
func TestCloseDuringFailedRoundLeavesNoResidue(t *testing.T) {
	for _, retries := range []int{0, 1} {
		c, err := NewMem(model.Tiny(), 2, Options{
			MaxRetries: retries,
			// Rank 0's first receive hangs forever: its input from the terminal
			// and its peer's collective sends stay queued as residue. No
			// watchdog, so only Close can resolve the pass.
			WrapTransport: func(rank int, p comm.Peer) comm.Peer {
				if rank == 0 {
					return &comm.FlakyPeer{Inner: p, StallRecvAfter: 1}
				}
				return p
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pend, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, 8))
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, 2*time.Second, "residue on the links", func() bool { return c.mesh[0].Queued() > 0 })
		// Let the remaining roles reach their blocking points so no send races
		// the flush below.
		time.Sleep(50 * time.Millisecond)
		c.Close()
		if _, err := pend.Wait(context.Background()); err == nil {
			t.Fatal("request must fail when shutdown aborts its pass")
		}
		waitCond(t, 2*time.Second, "residue flushed at shutdown", func() bool { return c.mesh[0].Queued() == 0 })
	}
}

// TestWaitContextCancelLeavesRequestRunning pins the Wait contract: the
// context passed to Wait bounds the wait, not the request. A Wait that
// returns ctx.Err() leaves the request in flight, and a second Wait with a
// fresh context observes its completed result.
func TestWaitContextCancelLeavesRequestRunning(t *testing.T) {
	// Per-message latency keeps the request in flight long enough that the
	// pre-cancelled Wait below deterministically races nothing.
	c := newTiny(t, 2, Options{Profile: netem.Profile{Latency: 20 * time.Millisecond}})
	pend, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, 8))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pend.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with dead context = %v, want context.Canceled", err)
	}
	res, err := pend.Wait(context.Background())
	if err != nil {
		t.Fatalf("second Wait after an abandoned first: %v", err)
	}
	if res.Output == nil || res.ID != pend.ID() {
		t.Fatalf("second Wait result %+v, want the completed request %d", res, pend.ID())
	}
}
