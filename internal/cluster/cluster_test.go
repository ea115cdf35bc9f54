package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"voltage/internal/comm"
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

// solo is the single-device reference: the whole stack on one replica, no
// mesh.
func solo(t testing.TB, c *Cluster, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	out, err := c.Model(0).ForwardFeatures(x)
	if err != nil {
		t.Fatal(err)
	}
	return out
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

func TestK1Degenerate(t *testing.T) {
	// One device is the single-device baseline: the whole sequence is its
	// partition and no layer gathers.
	c := newTiny(t, 1, Options{})
	x := embedTiny(t, c, 6)
	res, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.AlmostEqual(solo(t, c, x), 1e-2) {
		t.Fatal("K=1 output differs from the solo forward")
	}
	if sent := res.PerDevice[0].MsgsSent; sent != 1 {
		t.Fatalf("the one worker sent %d messages, want only its result", sent)
	}
}

func TestUnevenScheme(t *testing.T) {
	scheme, err := partition.Weighted([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	c := newTiny(t, 2, Options{Scheme: scheme})
	x := embedTiny(t, c, 11)
	voltage, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(solo(t, c, x), 1e-2) {
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
	voltage, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(solo(t, c, x), 1e-2) {
		t.Fatal("causal distributed inference differs from single device")
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
	if Strategy(42).String() != "Strategy(42)" {
		t.Fatal("Strategy String")
	}
	for _, s := range []Strategy{StrategySingle, StrategyVoltage, StrategyTensorParallel} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

// TestSubmitRefusesBaselineStrategies: the serving runtime executes Voltage
// and nothing else. A baseline or unknown strategy is refused with the typed
// error before anything is counted, queued or sent, supervised or not.
func TestSubmitRefusesBaselineStrategies(t *testing.T) {
	for _, opts := range []Options{{}, {MaxRetries: 2}} {
		c := newTiny(t, 3, opts)
		x := embedTiny(t, c, 8)
		for _, s := range []Strategy{StrategySingle, StrategyTensorParallel, Strategy(42)} {
			if _, err := c.Infer(context.Background(), s, x); !errors.Is(err, ErrStrategyNotServed) {
				t.Fatalf("retries %d, %v: err = %v, want ErrStrategyNotServed", opts.MaxRetries, s, err)
			}
		}
		for key, v := range c.Metrics().Counters {
			if strings.HasPrefix(key, "voltage_requests_total") && v != 0 {
				t.Fatalf("retries %d: a refused request was counted: %s = %v", opts.MaxRetries, key, v)
			}
		}
		for r, p := range c.peers {
			if st := p.Stats(); st != (comm.Stats{}) {
				t.Fatalf("retries %d: rank %d moved traffic for a refused request: %+v", opts.MaxRetries, r, st)
			}
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
	single := solo(t, c, x)
	voltage, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !voltage.Output.AlmostEqual(single, 1e-2) {
		t.Fatal("vision distributed result differs")
	}
	// Post-processing parity: classification from either output matches.
	c1, err := c.Model(0).Classifier.Predict(single)
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
