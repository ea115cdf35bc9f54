package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"voltage/internal/adapt"
	"voltage/internal/model"
	"voltage/internal/partition"
)

// --- chaos slow-rank injector ---------------------------------------------

func TestChaosSlowRankThrottlesDeviceRate(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{DeviceFlops: 8e6, ChaosSlowRank: 1, ChaosSlowFactor: 4})
	if got := c.deviceRate(0); got != 8e6 {
		t.Fatalf("rank 0 rate = %v, want 8e6", got)
	}
	if got := c.deviceRate(1); got != 2e6 {
		t.Fatalf("throttled rank 1 rate = %v, want 2e6", got)
	}
}

func TestChaosSlowRankComposesWithHeteroRates(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{
		HeteroDeviceFlops: []float64{8e6, 4e6},
		ChaosSlowRank:     0, ChaosSlowFactor: 2,
	})
	if got := c.deviceRate(0); got != 4e6 {
		t.Fatalf("throttled rank 0 rate = %v, want 4e6", got)
	}
	if got := c.deviceRate(1); got != 4e6 {
		t.Fatalf("rank 1 rate = %v, want 4e6", got)
	}
}

func TestAdaptAndChaosOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"slow factor below one", Options{DeviceFlops: 1e6, ChaosSlowRank: 0, ChaosSlowFactor: 0.5}},
		{"slow factor exactly one", Options{DeviceFlops: 1e6, ChaosSlowRank: 0, ChaosSlowFactor: 1}},
		{"slow rank out of range", Options{DeviceFlops: 1e6, ChaosSlowRank: 2, ChaosSlowFactor: 4}},
		{"slow rank negative", Options{DeviceFlops: 1e6, ChaosSlowRank: -1, ChaosSlowFactor: 4}},
		{"slow rank without pacing", Options{ChaosSlowRank: 0, ChaosSlowFactor: 4}},
		{"negative adapt interval", Options{Adapt: true, AdaptInterval: -time.Second}},
		{"negative adapt threshold", Options{Adapt: true, AdaptThreshold: -0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMem(model.TinyDecoder(), 2, tc.opts); err == nil {
				t.Fatalf("NewMem accepted %+v", tc.opts)
			}
		})
	}
}

// --- scheme installation ---------------------------------------------------

func TestInstallSchemeValidation(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{})
	if err := c.InstallScheme(nil, adapt.CauseManual, 0); err == nil {
		t.Fatal("nil scheme accepted")
	}
	wrong, err := partition.Even(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallScheme(wrong, adapt.CauseManual, 0); err == nil {
		t.Fatal("scheme with wrong K accepted")
	}
}

func TestInstallSchemeSwapsServingScheme(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{})
	target, err := partition.Weighted([]float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallScheme(target, adapt.CauseManual, 0.25); err != nil {
		t.Fatal(err)
	}
	got := c.Scheme().Ratios()
	want := target.Ratios()
	for r := range want {
		if math.Abs(got[r]-want[r]) > 1e-12 {
			t.Fatalf("ratios = %v, want %v", got, want)
		}
	}
	snap := c.Metrics()
	if n := snap.Counter(`voltage_repartitions_total{cause="manual"}`); n != 1 {
		t.Fatalf("manual repartitions = %v, want 1", n)
	}
	for r := range want {
		key := fmt.Sprintf("voltage_partition_ratio{rank=%q}", fmt.Sprint(r))
		if g := snap.Gauge(key); math.Abs(g-want[r]) > 1e-12 {
			t.Fatalf("%s = %v, want %v", key, g, want[r])
		}
	}
}

// --- bit-exactness across installs ------------------------------------------

// TestGenerateExactAcrossInstallAtEveryCut re-slices the partition at every
// possible step boundary of a streaming generation and checks the output
// against the single-device oracle each time. A live sequence's cache does
// not depend on the scheme it was prefilled under, so an install must leave
// it decoding where it is: same tokens, one attempt, one prefill, nothing
// resumed.
func TestGenerateExactAcrossInstallAtEveryCut(t *testing.T) {
	const steps = 6
	prompt := batchPrompts[0]
	want := soloReference(t, [][]int{prompt}, steps)[0]
	for cut := 0; cut <= steps; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			c := newTinyDecoder(t, 3, Options{MaxBatch: 2})
			target, err := partition.Weighted([]float64{3, 2, 1})
			if err != nil {
				t.Fatal(err)
			}
			install := func() {
				if err := c.InstallScheme(target, adapt.CauseManual, 0); err != nil {
					t.Errorf("install: %v", err)
				}
			}
			seen := 0
			if cut == 0 {
				install() // before admission: the join slices under the new scheme
			}
			res, err := c.GenerateVoltageStream(context.Background(), prompt, steps, func(int) {
				seen++
				if seen == cut {
					install()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !equalTokens(res.Tokens, want) {
				t.Fatalf("cut %d: tokens %v, want %v", cut, res.Tokens, want)
			}
			if res.Attempts != 1 {
				t.Fatalf("cut %d: attempts = %d, want 1", cut, res.Attempts)
			}
			assertNoReprefill(t, c, 1)
		})
	}
}

// assertNoReprefill checks that exactly joins sequences prefilled, each
// once: no install parked a live sequence for a re-prefill.
func assertNoReprefill(t *testing.T, c *Cluster, joins int) {
	t.Helper()
	snap := c.Metrics()
	if n := snap.Counter("voltage_batch_joins_total"); n != float64(joins) {
		t.Errorf("prefills (batch joins) = %v, want %d: an install forced a re-prefill", n, joins)
	}
	if n := snap.Counter("voltage_batch_seqs_resumed_total"); n != 0 {
		t.Errorf("sequences resumed = %v, want 0 across installs", n)
	}
}

// TestBatchedGenerateExactAcrossInstall installs under a full fused batch:
// four concurrent sequences at different cache positions, with the re-slice
// triggered from inside one sequence's token stream. Every stream keeps
// decoding on its owner — bit-identical tokens, one attempt, no re-prefill.
func TestBatchedGenerateExactAcrossInstall(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{MaxBatch: 4, BatchWindow: 30 * time.Millisecond})
	const steps = 6
	want := soloReference(t, batchPrompts, steps)
	target, err := partition.Weighted([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*GenerateResult, len(batchPrompts))
	errs := make([]error, len(batchPrompts))
	var wg sync.WaitGroup
	for i := range batchPrompts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var onToken func(int)
			if i == 0 {
				seen := 0
				onToken = func(int) {
					seen++
					if seen == 2 {
						if err := c.InstallScheme(target, adapt.CauseManual, 0); err != nil {
							t.Errorf("install: %v", err)
						}
					}
				}
			}
			results[i], errs[i] = c.GenerateVoltageStream(context.Background(), batchPrompts[i], steps, onToken)
		}(i)
	}
	wg.Wait()
	for i := range batchPrompts {
		if errs[i] != nil {
			t.Fatalf("seq %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Fatalf("seq %d: tokens %v, want %v", i, results[i].Tokens, want[i])
		}
		if results[i].Attempts != 1 {
			t.Fatalf("seq %d: attempts = %d, want 1", i, results[i].Attempts)
		}
	}
	assertNoReprefill(t, c, len(batchPrompts))
}

// --- closed-loop acceptance ------------------------------------------------

// TestAdaptConvergesAndOutpacesStaticEven is the end-to-end acceptance run:
// with one of three ranks throttled 4x, the controller must re-slice the
// partition toward the analytic optimum ([4/9 4/9 1/9]) and the adapted
// cluster must clearly outrun a static-even cluster under the identical
// throttle on partition-dominated (prefill-heavy) work. Everything stays
// bit-identical to the single-device oracle throughout.
//
// The measured workload uses a long context (240-position prompts on a
// MaxSeq-256 tiny decoder), one prompt at a time, owned by a fast rank in
// both clusters. Static even, the throttled rank's third of the positions
// sets the round at 4·N/3 position-times; adapted, the fast owner's 4N/9
// share plus its cache build (a fixed ~F/H positions' worth of work per
// layer) does — an expected ratio near 2.3, comfortably clear of the 1.5x
// bar across the band of shares the EWMA plausibly converges to.
func TestAdaptConvergesAndOutpacesStaticEven(t *testing.T) {
	if testing.Short() {
		t.Skip("paced acceptance run")
	}
	const (
		k        = 3
		slowRank = 2
	)
	cfg := model.TinyDecoder()
	cfg.MaxSeq = 256
	mkOpts := func(adaptive bool) Options {
		o := Options{
			// Slow enough that paced compute dominates fixed per-request
			// overhead (sleep overshoot, scheduling) — the speedup ratio
			// then reflects the partition, not the harness.
			DeviceFlops:     16e6,
			ChaosSlowRank:   slowRank,
			ChaosSlowFactor: 4,
			MaxBatch:        4,
			BatchWindow:     5 * time.Millisecond,
		}
		if adaptive {
			o.Adapt = true
			o.AdaptInterval = 10 * time.Millisecond
			o.AdaptEvals = 2
			o.AdaptCooldown = 100 * time.Millisecond
			// A tight threshold lets the controller refine an early
			// half-converged install all the way to the optimum instead of
			// stopping one position short of it.
			o.AdaptThreshold = 0.05
		}
		return o
	}
	mkCluster := func(adaptive bool) *Cluster {
		c, err := NewMem(cfg, k, mkOpts(adaptive))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	ref, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo := func(prompt []int, steps int) []int {
		w, err := ref.GenerateIncremental(prompt, steps)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	adaptive := mkCluster(true)

	// Sensing burst: each rank advances the sequences it owns and reports
	// its step time per MAC, so the per-rank step EWMAs read the 4x
	// throttle directly. The burst runs long enough for the profile to
	// settle and the hysteresis to clear; any install it triggers
	// mid-flight must not perturb the tokens.
	const senseSteps = 24
	var wg sync.WaitGroup
	senseRes := make([]*GenerateResult, len(batchPrompts))
	senseErr := make([]error, len(batchPrompts))
	for i := range batchPrompts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			senseRes[i], senseErr[i] = adaptive.GenerateVoltage(context.Background(), batchPrompts[i], senseSteps)
		}(i)
	}
	wg.Wait()
	for i := range batchPrompts {
		if senseErr[i] != nil {
			t.Fatalf("sense seq %d: %v", i, senseErr[i])
		}
		if !equalTokens(senseRes[i].Tokens, solo(batchPrompts[i], senseSteps)) {
			t.Fatalf("sense seq %d: tokens diverged across adaptation", i)
		}
	}

	// The controller keeps evaluating the stored profile after the burst
	// drains, so poll for the install rather than racing it. An early
	// install from a half-converged EWMA may be refined by a follow-up
	// move one cooldown later, so wait until the scheme has both reached
	// the optimum's neighborhood and stopped moving — a mid-measurement
	// install would split the timed requests between two schemes.
	// Race instrumentation slows host math past the fast ranks' paced
	// budgets, so the measured skew (and thus the converged shares) stops
	// reflecting the emulated 4x rate split — only the loose loop-closure
	// checks hold there.
	shareGate := 0.135
	if raceEnabled {
		shareGate = 0.25
	}
	deadline := time.Now().Add(30 * time.Second)
	var stableSince time.Time
	var prev []float64
	for {
		snap := adaptive.Metrics()
		installed := snap.Counter(`voltage_repartitions_total{cause="straggler"}`) +
			snap.Counter(`voltage_repartitions_total{cause="skew"}`)
		ratios := adaptive.Scheme().Ratios()
		changed := prev == nil || len(prev) != len(ratios)
		for r := range ratios {
			if changed || ratios[r] != prev[r] {
				changed = true
				break
			}
		}
		now := time.Now()
		if changed {
			stableSince = now
			prev = ratios
		}
		if installed >= 1 && ratios[slowRank] < shareGate && now.Sub(stableSince) > 600*time.Millisecond {
			break
		}
		if now.After(deadline) {
			t.Fatalf("controller never converged: repartitions=%v ratios=%v",
				installed, ratios)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ratios := adaptive.Scheme().Ratios()
	// Analytic optimum gives the slow rank 1/9 of the positions; accept
	// anything clearly below its even share.
	if ratios[slowRank] > shareGate {
		t.Fatalf("slow rank share = %.3f, want < %.3f (optimum 1/9)", ratios[slowRank], shareGate)
	}
	if raceEnabled {
		t.Skip("skipping paced throughput comparison under the race detector")
	}
	if math.Abs(ratios[0]-ratios[1]) > 0.15 {
		t.Fatalf("fast ranks should share evenly, got %v", ratios)
	}

	// Measurement: prefill is the partition-dependent phase, so the payoff
	// workload is long prompts with a single readout step, after one
	// untimed warmup request per cluster.
	prompt := make([]int, 240)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % 100
	}
	const reqs = 3
	measWant := solo(prompt, 1)
	measure := func(c *Cluster) time.Duration {
		t.Helper()
		run := func() {
			res, err := c.GenerateVoltage(context.Background(), prompt, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !equalTokens(res.Tokens, measWant) {
				t.Fatalf("measured tokens %v, want %v", res.Tokens, measWant)
			}
		}
		run() // warmup, untimed
		start := time.Now()
		for i := 0; i < reqs; i++ {
			run()
		}
		return time.Since(start)
	}
	static := mkCluster(false)
	adaptedTime := measure(adaptive)
	staticTime := measure(static)
	speedup := float64(staticTime) / float64(adaptedTime)
	t.Logf("prefill-heavy throughput: static-even %v, adapted %v (%.2fx)", staticTime, adaptedTime, speedup)
	if speedup < 1.5 {
		t.Fatalf("adapted cluster only %.2fx faster than static-even, want >= 1.5x", speedup)
	}
}
