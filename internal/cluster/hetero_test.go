package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// heteroRates is a 3-device cluster where device 2 is 4× slower. The base
// rate is slow enough that pacing (the emulated device speed) dominates the
// tiny model's real math and scheduling noise.
var heteroRates = []float64{1e7, 1e7, 1e7 / 4}

func TestHeteroValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		badRate bool // the error must be ErrInvalidRate
	}{
		{"rate count mismatch", Options{HeteroDeviceFlops: []float64{1e9}}, false},
		{"zero rate", Options{HeteroDeviceFlops: []float64{1e9, 0}}, true},
		{"negative rate", Options{HeteroDeviceFlops: []float64{-1e9, 1e9}}, true},
		{"NaN rate", Options{HeteroDeviceFlops: []float64{1e9, math.NaN()}}, true},
		{"+Inf rate", Options{HeteroDeviceFlops: []float64{math.Inf(1), 1e9}}, true},
		{"-Inf rate", Options{HeteroDeviceFlops: []float64{1e9, math.Inf(-1)}}, true},
		{"NaN DeviceFlops", Options{DeviceFlops: math.NaN()}, true},
		{"negative DeviceFlops", Options{DeviceFlops: -1e9}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMem(model.Tiny(), 2, tc.opts)
			if err == nil {
				t.Fatalf("NewMem accepted %+v", tc.opts)
			}
			if tc.badRate && !errors.Is(err, ErrInvalidRate) {
				t.Fatalf("error %v, want ErrInvalidRate", err)
			}
		})
	}
}

// TestDefaultSchemeIsEvenOnEqualRates pins what every homogeneous cluster —
// the benchmark's among them — serves without Options.Scheme: Even(k), to the
// bit, in its ratios and in every slice up to 1024 positions.
func TestDefaultSchemeIsEvenOnEqualRates(t *testing.T) {
	for k := 1; k <= 8; k++ {
		even, err := partition.Even(k)
		if err != nil {
			t.Fatal(err)
		}
		equal := func(rate float64) []float64 {
			rates := make([]float64, k)
			for i := range rates {
				rates[i] = rate
			}
			return rates
		}
		for name, opts := range map[string]Options{
			"unpaced":           {},
			"DeviceFlops 4e8":   {DeviceFlops: 4e8},
			"DeviceFlops 16e6":  {DeviceFlops: 16e6},
			"equal hetero 4e8":  {HeteroDeviceFlops: equal(4e8)},
			"equal hetero 16e6": {HeteroDeviceFlops: equal(16e6)},
		} {
			c := newTinyDecoder(t, k, opts)
			name := fmt.Sprintf("K=%d %s", k, name)
			if got, want := fmt.Sprint(c.scheme.Ratios()), fmt.Sprint(even.Ratios()); got != want {
				t.Fatalf("%s: ratios %s, want Even's %s", name, got, want)
			}
			for n := 0; n <= 1024; n++ {
				got, _ := c.scheme.Ranges(n)
				want, _ := even.Ranges(n)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s N=%d: ranges %v, want Even's %v", name, n, got, want)
				}
			}
		}
	}
}

// TestDegradedRoundSlicesSurvivorsByRate: a degraded round re-slices its
// survivors by their own rates — an explicit Options.Scheme covers the full
// round only — and evenly when those rates are equal.
func TestDegradedRoundSlicesSurvivorsByRate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		live []int
		want []float64
	}{
		{"hetero survivors", Options{HeteroDeviceFlops: []float64{3e6, 2e6, 1e6}}, []int{0, 2}, []float64{0.75, 0.25}},
		{"over an explicit scheme", Options{HeteroDeviceFlops: []float64{3e6, 2e6, 1e6}, Scheme: weightedScheme(t, []float64{1, 1, 1})}, []int{1, 2}, []float64{2. / 3, 1. / 3}},
		{"a throttled survivor", Options{DeviceFlops: 4e6, ChaosSlowRank: 1, ChaosSlowFactor: 4}, []int{1, 2}, []float64{0.2, 0.8}},
		{"equal survivors", Options{HeteroDeviceFlops: []float64{2e6, 2e6, 1e6}}, []int{0, 1}, []float64{0.5, 0.5}},
		{"the slow rank lost", Options{DeviceFlops: 4e6, ChaosSlowRank: 2, ChaosSlowFactor: 4}, []int{0, 1}, []float64{0.5, 0.5}},
	}
	for _, tc := range cases {
		c := newTinyDecoder(t, 3, tc.opts)
		scheme, err := c.passScheme(&round{ranks: tc.live, live: tc.live})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := scheme.Ratios(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: survivors %v sliced %v, want %v", tc.name, tc.live, got, tc.want)
		}
	}
}

// weightedScheme is the paper's §V-B mechanism: a static ratio vector that
// gives each device rows in proportion to its speed.
func weightedScheme(t *testing.T, rates []float64) *partition.Scheme {
	t.Helper()
	scheme, err := partition.Weighted(rates)
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}

func TestWeightedSchemeBeatsEvenOnHeterogeneousCluster(t *testing.T) {
	// With one 4×-slower device, the even scheme is bottlenecked by the
	// straggler at every layer; slicing by speed shrinks its share and cuts
	// the end-to-end latency without changing the computed function.
	if raceEnabled {
		t.Skip("pacing-based timing comparison unreliable under -race")
	}
	cfg := model.Tiny().Scaled(8)
	run := func(scheme *partition.Scheme) (float64, *tensor.Matrix) {
		c, err := NewMem(cfg, 3, Options{HeteroDeviceFlops: heteroRates, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 48))
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Seconds(), res.Output
	}
	evenScheme, err := partition.Even(3)
	if err != nil {
		t.Fatal(err)
	}
	even, evenOut := run(evenScheme)
	weighted, weightedOut := run(weightedScheme(t, heteroRates))
	// Identical up to the rounding of Theorem 2's two association orders,
	// which a slice's length selects between.
	if d, err := weightedOut.MaxAbsDiff(evenOut); err != nil || d > 1e-4 {
		t.Fatalf("weighted scheme changed the output by %v (err %v)", d, err)
	}
	if weighted >= even {
		t.Fatalf("weighted scheme (%.4fs) not faster than even scheme (%.4fs) on heterogeneous cluster",
			weighted, even)
	}
	t.Logf("heterogeneous K=3 (one 4x-slower device): even=%.4fs weighted=%.4fs (%.0f%% faster)",
		even, weighted, 100*(1-weighted/even))
}

func TestWeightedSchemeHomogeneousStaysCorrect(t *testing.T) {
	// A ratio vector that does not match the devices costs time, never
	// correctness.
	c, err := NewMem(model.Tiny().Scaled(4), 3, Options{Scheme: weightedScheme(t, heteroRates), DeviceFlops: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	x := embedTiny(t, c, 30)
	weighted, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Output.AlmostEqual(solo(t, c, x), 1e-2) {
		t.Fatal("homogeneous weighted output differs")
	}
}

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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMem(model.TinyDecoder(), 2, tc.opts); err == nil {
				t.Fatalf("NewMem accepted %+v", tc.opts)
			}
		})
	}
}

// --- rate-weighted acceptance ----------------------------------------------

// TestRateWeightedSchemeOutpacesEven is the end-to-end acceptance run: with
// one of three ranks throttled 4x, the default scheme gives it the analytic
// optimum's 1/9 of the positions from boot ([4/9 4/9 1/9]), and that cluster
// must clearly outrun an even-split one under the identical throttle on
// partition-dominated (prefill-heavy) work. Everything stays bit-identical to
// the single-device oracle.
//
// The measured workload uses a long context (240-position prompts on a
// MaxSeq-256 tiny decoder), one prompt at a time. Even, the throttled rank's
// third of the positions sets the round at 4·N/3 position-times; weighted, a
// fast rank's 4N/9 share plus its cache build (a fixed ~F/H positions' worth
// of work per layer) does — an expected ratio near 2.3, clear of the 1.5x bar.
func TestRateWeightedSchemeOutpacesEven(t *testing.T) {
	if testing.Short() {
		t.Skip("paced acceptance run")
	}
	const (
		k        = 3
		slowRank = 2
	)
	cfg := model.TinyDecoder()
	cfg.MaxSeq = 256
	mkCluster := func(scheme *partition.Scheme) *Cluster {
		c, err := NewMem(cfg, k, Options{
			// Slow enough that paced compute dominates fixed per-request
			// overhead (sleep overshoot, scheduling) — the speedup ratio
			// then reflects the partition, not the harness.
			DeviceFlops:     16e6,
			ChaosSlowRank:   slowRank,
			ChaosSlowFactor: 4,
			MaxBatch:        4,
			BatchWindow:     5 * time.Millisecond,
			Scheme:          scheme,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	weighted := mkCluster(nil)
	want := []float64{4. / 9, 4. / 9, 1. / 9}
	if got := weighted.scheme.Ratios(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("default scheme %v, want the rate-weighted %v", got, want)
	}
	key := fmt.Sprintf("voltage_partition_ratio{rank=%q}", fmt.Sprint(slowRank))
	if g := weighted.Metrics().Gauge(key); g != want[slowRank] {
		t.Fatalf("%s = %v, want %v", key, g, want[slowRank])
	}
	if raceEnabled {
		t.Skip("skipping paced throughput comparison under the race detector")
	}
	even, err := partition.Even(k)
	if err != nil {
		t.Fatal(err)
	}
	static := mkCluster(even)

	ref, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Prefill is the partition-dependent phase, so the payoff workload is
	// long prompts with a single readout step, after one untimed warmup
	// request per cluster.
	prompt := make([]int, 240)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % 100
	}
	measWant, err := ref.GenerateIncremental(prompt, 1)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 3
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
	weightedTime := measure(weighted)
	staticTime := measure(static)
	speedup := float64(staticTime) / float64(weightedTime)
	t.Logf("prefill-heavy throughput: even %v, rate-weighted %v (%.2fx)", staticTime, weightedTime, speedup)
	if speedup < 1.5 {
		t.Fatalf("rate-weighted cluster only %.2fx faster than even, want >= 1.5x", speedup)
	}
}
