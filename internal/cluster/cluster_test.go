package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

func newTiny(t testing.TB, k int, opts Options) *Cluster {
	t.Helper()
	c, err := NewMem(model.Tiny(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func embedTiny(t testing.TB, c *Cluster, n int) *tensor.Matrix {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i*7 + 3) % c.Config().VocabSize
	}
	x, err := c.Model(0).Embed.EmbedTokens(ids)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"":                StrategyVoltage,
		"voltage":         StrategyVoltage,
		"single":          StrategySingle,
		"tensor-parallel": StrategyTensorParallel,
		"tp":              StrategyTensorParallel,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, s := range []Strategy{StrategySingle, StrategyVoltage, StrategyTensorParallel} {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%v.String()) = %v, %v", s, got, err)
		}
	}
	for _, name := range []string{"nope", "Voltage", "pipeline"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q): want an error", name)
		}
	}
}

func TestNewMemValidation(t *testing.T) {
	if _, err := NewMem(model.Tiny(), 0, Options{}); err == nil {
		t.Fatal("want error for k=0")
	}
	bad := model.Tiny()
	bad.F = 33
	if _, err := NewMem(bad, 2, Options{}); err == nil {
		t.Fatal("want error for invalid config")
	}
	scheme, _ := partition.Even(3)
	if _, err := NewMem(model.Tiny(), 2, Options{Scheme: scheme}); err == nil {
		t.Fatal("want error for scheme/k mismatch")
	}
}

func TestAllStrategiesAgreeOnOutput(t *testing.T) {
	// Single device, Voltage (K=3) and tensor parallelism (K=3) must all
	// produce (numerically) the same final hidden states.
	c := newTiny(t, 3, Options{})
	x := embedTiny(t, c, 13)
	ctx := context.Background()

	single, err := c.Infer(ctx, StrategySingle, x)
	if err != nil {
		t.Fatal(err)
	}
	voltage, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.Infer(ctx, StrategyTensorParallel, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(single.Output, 1e-2) {
		d, _ := voltage.Output.MaxAbsDiff(single.Output)
		t.Fatalf("voltage differs from single by %v", d)
	}
	if !tp.Output.AlmostEqual(single.Output, 1e-2) {
		d, _ := tp.Output.MaxAbsDiff(single.Output)
		t.Fatalf("tensor parallel differs from single by %v", d)
	}
}

func TestK1Degenerate(t *testing.T) {
	c := newTiny(t, 1, Options{})
	x := embedTiny(t, c, 6)
	ctx := context.Background()
	for _, s := range []Strategy{StrategySingle, StrategyVoltage, StrategyTensorParallel} {
		res, err := c.Infer(ctx, s, x)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Output.Rows() != 6 {
			t.Fatalf("%v output rows %d", s, res.Output.Rows())
		}
	}
}

func TestUnevenScheme(t *testing.T) {
	scheme, err := partition.Weighted([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	c := newTiny(t, 2, Options{Scheme: scheme})
	x := embedTiny(t, c, 11)
	ctx := context.Background()
	single, err := c.Infer(ctx, StrategySingle, x)
	if err != nil {
		t.Fatal(err)
	}
	voltage, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(single.Output, 1e-2) {
		t.Fatal("uneven scheme result differs")
	}
}

func TestDecoderClusterAgrees(t *testing.T) {
	c, err := NewMem(model.TinyDecoder(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	x := embedTiny(t, c, 10)
	ctx := context.Background()
	single, err := c.Infer(ctx, StrategySingle, x)
	if err != nil {
		t.Fatal(err)
	}
	voltage, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.Infer(ctx, StrategyTensorParallel, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(single.Output, 1e-2) || !tp.Output.AlmostEqual(single.Output, 1e-2) {
		t.Fatal("causal distributed inference differs from single device")
	}
}

func TestCommVolumeVoltageVsTP(t *testing.T) {
	// Per worker per layer: Voltage (K−1)NF/K values, TP 4(K−1)NF/K
	// values — the 4× headline. Count payload bytes over a full inference.
	k, n := 4, 16
	c := newTiny(t, k, Options{})
	x := embedTiny(t, c, n)
	f := c.Config().F
	layers := c.Config().Layers
	ctx := context.Background()

	voltage, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.Infer(ctx, StrategyTensorParallel, x)
	if err != nil {
		t.Fatal(err)
	}

	// Voltage worker egress: (layers−1) all-gathers of its NF/K partition
	// to K−1 peers, plus the final-layer send to the terminal.
	perPartition := int64(4 * n * f / k)
	wantWorker := int64(layers-1)*perPartition*int64(k-1) + perPartition
	for r := 0; r < k; r++ {
		s := voltage.PerDevice[r]
		payload := s.BytesSent - 8*s.MsgsSent // strip codec headers
		if payload != wantWorker {
			t.Fatalf("voltage worker %d sent %d payload bytes, want %d", r, payload, wantWorker)
		}
	}
	// TP worker egress: 2 ring all-reduces per layer at 2(K−1)NF/K values
	// each (+ worker 0's final report).
	wantTP := int64(layers) * int64(4*2*2*(k-1)*n*f/k)
	for r := 1; r < k; r++ {
		if got := tp.PerDevice[r].BytesSent; got != wantTP {
			t.Fatalf("tp worker %d sent %d bytes, want %d", r, got, wantTP)
		}
	}
	// Aggregate ratio: per layer it is exactly 4×; over the whole model the
	// final layer (terminal hand-off instead of All-Gather) shifts it.
	// Compare against the analytic expectation within 10%.
	voltageTotal := float64(k) * float64(wantWorker+8*voltage.PerDevice[0].MsgsSent)
	tpTotal := float64(k)*float64(wantTP) + float64(4*n*f+8) // + worker 0 report
	wantRatio := tpTotal / voltageTotal
	ratio := float64(tp.TotalBytesSent()) / float64(voltage.TotalBytesSent())
	if ratio < 0.9*wantRatio || ratio > 1.1*wantRatio {
		t.Fatalf("TP/Voltage comm ratio %.2f, want ≈%.2f", ratio, wantRatio)
	}
	// And the per-layer steady-state ratio is the paper's 4×.
	perLayerVoltage := float64(perPartition * int64(k-1))
	perLayerTP := float64(4 * 2 * 2 * (k - 1) * n * f / k)
	if r := perLayerTP / perLayerVoltage; r != 4 {
		t.Fatalf("per-layer TP/Voltage ratio %v, want exactly 4", r)
	}
}

func TestBandwidthSlowsInference(t *testing.T) {
	cFast := newTiny(t, 2, Options{})
	x := embedTiny(t, cFast, 32)
	ctx := context.Background()
	fast, err := cFast.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	cSlow := newTiny(t, 2, Options{Profile: netem.Profile{BandwidthMbps: 1}})
	slow, err := cSlow.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Latency <= fast.Latency {
		t.Fatalf("1Mbps latency %v not above unlimited %v", slow.Latency, fast.Latency)
	}
}

func TestSetBandwidth(t *testing.T) {
	c := newTiny(t, 2, Options{Profile: netem.Profile{BandwidthMbps: 100}})
	x := embedTiny(t, c, 24)
	ctx := context.Background()
	r1, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBandwidth(0.5)
	r2, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Latency <= r1.Latency {
		t.Fatalf("bandwidth cut did not slow inference: %v vs %v", r2.Latency, r1.Latency)
	}
}

func TestInferContextCancel(t *testing.T) {
	c := newTiny(t, 2, Options{Profile: netem.Profile{BandwidthMbps: 0.1}})
	x := embedTiny(t, c, 32)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Infer(ctx, StrategyVoltage, x); err == nil {
		t.Fatal("want error from cancelled inference")
	}
}

func TestUnknownStrategy(t *testing.T) {
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 4)
	if _, err := c.Infer(context.Background(), Strategy(42), x); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Fatal("Strategy String")
	}
	for _, s := range []Strategy{StrategySingle, StrategyVoltage, StrategyTensorParallel} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

func TestResultLatencyPositive(t *testing.T) {
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 8)
	res, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency %v", res.Latency)
	}
	if res.Strategy != StrategyVoltage {
		t.Fatal("strategy not echoed")
	}
	if len(res.PerDevice) != 3 {
		t.Fatalf("PerDevice %d entries", len(res.PerDevice))
	}
}

func TestSequentialInfersAccumulateIndependently(t *testing.T) {
	// Stats deltas must be per-inference, not cumulative.
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 8)
	ctx := context.Background()
	r1, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.PerDevice {
		if r1.PerDevice[i].BytesSent != r2.PerDevice[i].BytesSent {
			t.Fatalf("device %d stats differ across identical runs: %d vs %d",
				i, r1.PerDevice[i].BytesSent, r2.PerDevice[i].BytesSent)
		}
	}
}

func TestVisionClusterEndToEnd(t *testing.T) {
	c, err := NewMem(model.TinyVision(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	im := model.RandomImage(tensor.NewRNG(9), 3, 16)
	x, err := c.Model(0).Embed.EmbedImage(im)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	single, err := c.Infer(ctx, StrategySingle, x)
	if err != nil {
		t.Fatal(err)
	}
	voltage, err := c.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(single.Output, 1e-2) {
		t.Fatal("vision distributed result differs")
	}
	// Post-processing parity: classification from either output matches.
	c1, err := c.Model(0).Classifier.Predict(single.Output)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Model(0).Classifier.Predict(voltage.Output)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("predictions diverge: %d vs %d", c1, c2)
	}
}

func TestStrategiesAcrossDeviceCounts(t *testing.T) {
	for _, k := range []int{2, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := newTiny(t, k, Options{})
			x := embedTiny(t, c, 10)
			ctx := context.Background()
			s, err := c.Infer(ctx, StrategySingle, x)
			if err != nil {
				t.Fatal(err)
			}
			v, err := c.Infer(ctx, StrategyVoltage, x)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Output.AlmostEqual(s.Output, 1e-2) {
				t.Fatal("outputs differ")
			}
		})
	}
}
