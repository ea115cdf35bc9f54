package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// The baselines' correctness and accounting tests, on the one-shot mesh.
// "single" is Voltage on a K = 1 serving cluster throughout.

func newMesh(t testing.TB, cfg model.Config, k int, profile netem.Profile, cal Calibration) *Mesh {
	t.Helper()
	m, err := NewMesh(cfg, k, profile, cal, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func embedTiny(t testing.TB, m *Mesh, n int) *tensor.Matrix {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i*7 + 3) % m.Model.Cfg.VocabSize
	}
	x, err := m.Model.Embed.EmbedTokens(ids)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// single is the single-device output of x: Voltage on a K = 1 serving cluster.
func single(t testing.TB, m *Mesh, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	res, err := m.voltage(context.Background(), 1, x)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(model.Tiny(), 0, netem.Unlimited, Calibration{}, 1); err == nil {
		t.Fatal("want error for k=0")
	}
	bad := model.Tiny()
	bad.F = 33
	if _, err := NewMesh(bad, 2, netem.Unlimited, Calibration{}, 1); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestAllStrategiesAgreeOnOutput(t *testing.T) {
	// Single device, Voltage (K=3) and tensor parallelism (K=3) must all
	// produce (numerically) the same final hidden states — causal models
	// included.
	for _, cfg := range []model.Config{model.Tiny(), model.TinyDecoder()} {
		m := newMesh(t, cfg, 3, netem.Unlimited, Calibration{})
		x := embedTiny(t, m, 13)
		ctx := context.Background()
		want := single(t, m, x)
		voltage, err := m.voltage(ctx, 3, x)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := m.TensorParallel(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !voltage.Output.AlmostEqual(want, 1e-2) {
			d, _ := voltage.Output.MaxAbsDiff(want)
			t.Fatalf("%s: voltage differs from single by %v", cfg.Name, d)
		}
		if !tp.Output.AlmostEqual(want, 1e-2) {
			d, _ := tp.Output.MaxAbsDiff(want)
			t.Fatalf("%s: tensor parallel differs from single by %v", cfg.Name, d)
		}
	}
}

func TestStrategiesAcrossDeviceCounts(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m := newMesh(t, model.Tiny(), k, netem.Unlimited, Calibration{})
			x := embedTiny(t, m, 10)
			ctx := context.Background()
			want := single(t, m, x)
			v, err := m.voltage(ctx, k, x)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := m.TensorParallel(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := m.positionwise(ctx, x, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Output.AlmostEqual(want, 1e-2) || !tp.Output.AlmostEqual(want, 1e-2) {
				t.Fatal("outputs differ")
			}
			// The one-shot pass is the serving cluster's, to the bit and the byte.
			if !exact.Output.Equal(v.Output) || exact.TotalBytesSent() != v.TotalBytesSent() {
				t.Fatalf("one-shot position-wise pass differs from the cluster's: %d vs %d bytes",
					exact.TotalBytesSent(), v.TotalBytesSent())
			}
		})
	}
}

func TestClassifyTokensAllStrategiesAgree(t *testing.T) {
	m := newMesh(t, model.Tiny(), 3, netem.Unlimited, Calibration{})
	x, err := m.Model.Embed.EmbedTokens([]int{4, 8, 15, 16, 23, 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	voltage, err := m.voltage(ctx, 3, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := m.TensorParallel(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	var classes []int
	for _, out := range []*tensor.Matrix{single(t, m, x), voltage.Output, tp.Output} {
		class, err := m.Model.Classifier.Predict(out)
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, class)
	}
	if classes[0] != classes[1] || classes[1] != classes[2] {
		t.Fatalf("strategies disagree on class: %v", classes)
	}
}

func TestCommVolumeVoltageVsTP(t *testing.T) {
	// Per worker per layer: Voltage (K−1)NF/K values, TP 4(K−1)NF/K
	// values — the 4× headline. Count payload bytes over a full inference.
	k, n := 4, 16
	m := newMesh(t, model.Tiny(), k, netem.Unlimited, Calibration{})
	x := embedTiny(t, m, n)
	f := m.Model.Cfg.F
	layers := m.Model.Cfg.Layers
	ctx := context.Background()

	voltage, err := m.voltage(ctx, k, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := m.TensorParallel(ctx, x)
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

func TestProfileCapturesTPBreakdown(t *testing.T) {
	m := newMesh(t, model.Tiny(), 2, netem.Unlimited, Calibration{})
	res, err := m.TensorParallel(context.Background(), embedTiny(t, m, 12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute <= 0 || res.Comm <= 0 || res.Latency <= 0 {
		t.Fatalf("breakdown incomplete: compute %v comm %v latency %v", res.Compute, res.Comm, res.Latency)
	}
}

func TestTPCommFractionExceedsVoltage(t *testing.T) {
	// The crux of the paper in one number: under the same bandwidth, TP
	// spends a larger fraction of its time communicating than Voltage.
	rows, err := BreakdownMeasured(context.Background(), model.Tiny().Scaled(4), 3,
		netem.Profile{BandwidthMbps: 20, Latency: 200 * time.Microsecond},
		Calibration{DeviceFlops: 2e8, BwScale: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, tp := rows[0].CommFraction, rows[1].CommFraction
	if tp <= v {
		t.Fatalf("TP comm fraction %.2f not above Voltage %.2f", tp, v)
	}
	t.Logf("comm fraction @20Mbps: voltage=%.2f tensor-parallel=%.2f", v, tp)
}

// ---------------------------------------------------------------- pipeline

func TestInferPipelineCorrectness(t *testing.T) {
	m := newMesh(t, model.Tiny(), 3, netem.Unlimited, Calibration{})
	x := embedTiny(t, m, 10)
	want := single(t, m, x)
	res, err := m.Pipeline(context.Background(), []*tensor.Matrix{x, x})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
	for i, out := range res.Outputs {
		if !out.AlmostEqual(want, 1e-2) {
			t.Fatalf("pipeline output %d differs from single device", i)
		}
	}
	if res.FirstLatency <= 0 || res.Latency < res.FirstLatency {
		t.Fatalf("timings: first %v makespan %v", res.FirstLatency, res.Latency)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput")
	}
}

func TestInferPipelineValidation(t *testing.T) {
	m := newMesh(t, model.Tiny(), 2, netem.Unlimited, Calibration{})
	if _, err := m.Pipeline(context.Background(), nil); err == nil {
		t.Fatal("want error for empty batch")
	}
}

func TestPipelineNoLatencyBenefitAtBatchOne(t *testing.T) {
	if raceEnabled {
		t.Skip("pacing-based timing comparison unreliable under -race")
	}
	// The paper's argument quantified: at batch size 1, the pipelined
	// first-request latency is no better than single-device. The paced rate
	// is orders of magnitude below loadProof's third of the host rate, and
	// each side is the minimum of three runs: host load only ever adds to a
	// paced run, so the minimum is the one closest to the emulated time.
	m := newMesh(t, model.Tiny().Scaled(6), 3, netem.Unlimited, Calibration{DeviceFlops: 4e6, BwScale: 1})
	x := embedTiny(t, m, 32)
	ctx := context.Background()
	c, err := m.system(1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var single, pipe time.Duration
	for run := 0; run < 3; run++ {
		s, err := c.Infer(ctx, cluster.StrategyVoltage, x)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Pipeline(ctx, []*tensor.Matrix{x})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 || s.Latency < single {
			single = s.Latency
		}
		if run == 0 || p.FirstLatency < pipe {
			pipe = p.FirstLatency
		}
	}
	// Allow 5% tolerance: identical total compute + transfer overhead.
	if float64(pipe) < 0.95*float64(single) {
		t.Fatalf("pipeline batch-1 latency %v unexpectedly beat single device %v", pipe, single)
	}
	t.Logf("batch-1: single=%v pipeline=%v (pipelining does not help individual latency)", single, pipe)
}

func TestPipelineThroughputScalesWithBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("pacing-based timing comparison unreliable under -race")
	}
	// With enough microbatches the pipeline's throughput approaches K×
	// a single stage — its actual strength. Slow paced rate: see above.
	m := newMesh(t, model.Tiny().Scaled(6), 3, netem.Unlimited, Calibration{DeviceFlops: 5e6, BwScale: 1})
	x := embedTiny(t, m, 32)
	ctx := context.Background()
	one, err := m.Pipeline(ctx, []*tensor.Matrix{x})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*tensor.Matrix, 9)
	for i := range batch {
		batch[i] = x
	}
	many, err := m.Pipeline(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if many.Throughput() < 1.5*one.Throughput() {
		t.Fatalf("pipeline throughput did not scale: 1 req %.2f/s vs 9 reqs %.2f/s",
			one.Throughput(), many.Throughput())
	}
	t.Logf("throughput: batch1=%.2f req/s batch9=%.2f req/s", one.Throughput(), many.Throughput())
}

func TestPipelineK1(t *testing.T) {
	m := newMesh(t, model.Tiny(), 1, netem.Unlimited, Calibration{})
	x := embedTiny(t, m, 8)
	res, err := m.Pipeline(context.Background(), []*tensor.Matrix{x})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[0].AlmostEqual(single(t, m, x), 1e-3) {
		t.Fatal("K=1 pipeline output differs")
	}
}

func TestPipelineMoreDevicesThanLayers(t *testing.T) {
	// 2-layer model over 3 stages: one stage is empty and must still
	// relay correctly.
	m := newMesh(t, model.Tiny(), 3, netem.Unlimited, Calibration{}) // Tiny has 2 layers
	x := embedTiny(t, m, 8)
	res, err := m.Pipeline(context.Background(), []*tensor.Matrix{x})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[0].AlmostEqual(single(t, m, x), 1e-2) {
		t.Fatal("pipeline with empty stage differs")
	}
}

// --------------------------------------------------------------- quantized

func TestQuantizedCommOutputClose(t *testing.T) {
	// Quantized All-Gathers are lossy but bounded: final hidden states
	// must stay close to the exact run and the prediction must match.
	m := newMesh(t, model.Tiny(), 3, netem.Unlimited, Calibration{})
	x := embedTiny(t, m, 16)
	ctx := context.Background()
	re, err := m.voltage(ctx, 3, x)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := m.Quantized(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rq.Output.MaxAbsDiff(re.Output)
	if err != nil {
		t.Fatal(err)
	}
	// Layer-normed activations are O(1); int8 per-layer error stays well
	// below 0.5 after two layers.
	if d <= 0 || d > 0.5 {
		t.Fatalf("quantized output deviates by %v", d)
	}
	pe, err := m.Model.Classifier.Predict(re.Output)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := m.Model.Classifier.Predict(rq.Output)
	if err != nil {
		t.Fatal(err)
	}
	if pe != pq {
		t.Fatalf("quantized comm flipped the prediction: %d vs %d", pe, pq)
	}
}

func TestQuantizedCommReducesTraffic(t *testing.T) {
	m := newMesh(t, model.Tiny(), 4, netem.Unlimited, Calibration{})
	x := embedTiny(t, m, 32)
	ctx := context.Background()
	re, err := m.voltage(ctx, 4, x)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := m.Quantized(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(re.TotalBytesSent()) / float64(rq.TotalBytesSent())
	// All-Gather traffic shrinks ≈4×; the final float32 hand-off to the
	// terminal dilutes the aggregate somewhat.
	if ratio < 2 {
		t.Fatalf("quantized comm ratio %.2f, want ≥2 (≈4 on gathers)", ratio)
	}
	t.Logf("traffic: exact=%dB quantized=%dB (%.1fx reduction)", re.TotalBytesSent(), rq.TotalBytesSent(), ratio)
}

func TestQuantizedCommFasterAtLowBandwidth(t *testing.T) {
	if raceEnabled {
		t.Skip("bandwidth-vs-cpu timing comparison unreliable under -race")
	}
	// At edge bandwidths the 4× smaller gathers translate into latency.
	m := newMesh(t, model.Tiny().Scaled(4), 3, netem.Profile{BandwidthMbps: 10}, Calibration{})
	x := embedTiny(t, m, 48)
	ctx := context.Background()
	exact, err := m.positionwise(ctx, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := m.Quantized(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if quant.Latency >= exact.Latency {
		t.Fatalf("quantized comm (%v) not faster than exact (%v) at 10 Mbps", quant.Latency, exact.Latency)
	}
	t.Logf("10 Mbps latency: exact=%v quantized=%v", exact.Latency, quant.Latency)
}

// ------------------------------------------------- full-recompute generation

func TestGenerateDeterministicAcrossStrategies(t *testing.T) {
	prompt := []int{1, 2, 3}
	ctx := context.Background()
	gv, runs, err := newMesh(t, model.TinyDecoder(), 3, netem.Unlimited, Calibration{}).Recompute(ctx, prompt, 4)
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := newMesh(t, model.TinyDecoder(), 1, netem.Unlimited, Calibration{}).Recompute(ctx, prompt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gv) != 7 {
		t.Fatalf("generated %d tokens, want 7", len(gv))
	}
	for i := range gv {
		if gv[i] != gs[i] {
			t.Fatalf("K=3 and single device diverge at %d: %v vs %v", i, gv, gs)
		}
	}
	if len(runs) != 4 {
		t.Fatalf("expected 4 runs, got %d", len(runs))
	}
	if _, _, err := newMesh(t, model.Tiny(), 2, netem.Unlimited, Calibration{}).Recompute(ctx, prompt, 2); err == nil {
		t.Fatal("want error for generation on an encoder")
	}
}

func TestGenerateStopsAtMaxSeq(t *testing.T) {
	cfg := model.TinyDecoder()
	cfg.MaxSeq = 5
	g, _, err := newMesh(t, cfg, 2, netem.Unlimited, Calibration{}).Recompute(context.Background(), []int{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 5 {
		t.Fatalf("tokens %d, want capped at MaxSeq 5", len(g))
	}
}

func TestGenerateCachedMatchesGenerate(t *testing.T) {
	m := newMesh(t, model.TinyDecoder(), 3, netem.Unlimited, Calibration{})
	ctx := context.Background()
	prompt := []int{7, 11, 13}
	slow, runs, err := m.Recompute(ctx, prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.system(3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fast, err := c.GenerateVoltage(ctx, prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Tokens) != len(slow) {
		t.Fatalf("lengths differ: %v vs %v", fast.Tokens, slow)
	}
	for i := range fast.Tokens {
		if fast.Tokens[i] != slow[i] {
			t.Fatalf("cached and recompute decoding diverge at %d", i)
		}
	}
	// The cached path must move far less data per generated token.
	var slowBytes, fastBytes int64
	for _, r := range runs {
		slowBytes += r.TotalBytesSent()
	}
	for _, s := range fast.PerDevice[:3] {
		fastBytes += s.BytesSent
	}
	if fastBytes >= slowBytes {
		t.Fatalf("cached decode moved %d bytes, recompute %d", fastBytes, slowBytes)
	}
}

// ------------------------------------------------------------ the runner

// TestRunJoinsEveryRoleOnFailure: whichever way a run ends — a worker's
// error, the caller's context — it reports that cause and returns only once
// every goroutine it started has (under -race a leaked role would also trip
// the detector on the next run's mesh).
func TestRunJoinsEveryRoleOnFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newMesh(t, model.Tiny().Scaled(4), 3, netem.Profile{BandwidthMbps: 0.5}, Calibration{})
	x := embedTiny(t, m, 24)

	// A worker fails (an input no layer accepts) while its peers and the
	// terminal wait on it.
	bad := tensor.New(4, m.Model.Cfg.F+1)
	if _, err := m.TensorParallel(context.Background(), bad); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("tensor parallel on a malformed input: err = %v, want the worker's own error", err)
	}
	if _, err := m.Pipeline(context.Background(), []*tensor.Matrix{x, bad, x}); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("pipeline on a malformed input: err = %v, want the stage's own error", err)
	}
	// The caller gives up mid-transfer on a slow link.
	for name, run := range map[string]func(context.Context) error{
		"tensor-parallel": func(ctx context.Context) error { _, err := m.TensorParallel(ctx, x); return err },
		"quantized":       func(ctx context.Context) error { _, err := m.Quantized(ctx, x); return err },
		"pipeline":        func(ctx context.Context) error { _, err := m.Pipeline(ctx, []*tensor.Matrix{x, x, x}); return err },
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := run(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want the caller's deadline", name, err)
		}
	}
	// Every role has returned by now; give exiting goroutines a moment to
	// leave the count.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after: a run leaked a role", before, after)
	}
	// The mesh is reusable after failures: every run starts on fresh links.
	m.Profile = netem.Unlimited
	if _, err := m.TensorParallel(context.Background(), x); err != nil {
		t.Fatal(err)
	}
}
