package costmodel

import (
	"context"
	"sync"
	"testing"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

func bertSystem(k int, mbps float64) System {
	return System{
		Model:  model.BERTLarge(),
		N:      200,
		K:      k,
		Net:    netem.Profile{BandwidthMbps: mbps, Latency: 200 * time.Microsecond},
		Device: EdgeCPU,
	}
}

func TestValidate(t *testing.T) {
	s := bertSystem(2, 500)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for N=0")
	}
	bad = s
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for K=0")
	}
	bad = s
	bad.Device.FlopsPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for zero flops")
	}
	if _, err := bad.Predict(cluster.StrategySingle); err == nil {
		t.Fatal("Predict must validate")
	}
	if _, err := s.Predict(cluster.Strategy(99)); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

func TestFig4ShapeVoltageScalesDown(t *testing.T) {
	// Voltage latency must drop as K grows at 500 Mbps, stay below single
	// device from K=2 on, and land meaningfully below it at K=6 (paper: 27.9%
	// for BERT). On the emulated link the drop is monotone within each parity
	// of K, not across it: an All-Gather among an odd K occupies the link for
	// 2K partitions, among an even K for 2(K−1) (allGatherParts), so K=3 sits
	// above K=2 — as the measured column of EXPERIMENTS.md Fig. 4 does.
	single, err := bertSystem(1, 500).Predict(cluster.StrategySingle)
	if err != nil {
		t.Fatal(err)
	}
	var total [7]time.Duration
	for k := 1; k <= 6; k++ {
		b, err := bertSystem(k, 500).Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		total[k] = b.Total()
		if k >= 2 && total[k] >= single.Total() {
			t.Fatalf("voltage at K=%d (%v) not below single device (%v)", k, total[k], single.Total())
		}
		if k >= 3 && total[k] >= total[k-2] {
			t.Fatalf("voltage latency not falling at K=%d: %v ≥ %v at K=%d", k, total[k], total[k-2], k-2)
		}
	}
	improvement := 1 - float64(total[6])/float64(single.Total())
	if improvement < 0.15 || improvement > 0.9 {
		t.Fatalf("K=6 improvement %.1f%%, want a substantial reduction (paper ≈28%%)", 100*improvement)
	}
}

// TestAllGatherTermMatchesTheLink times comm.AllGather on the link the model
// describes — a 50 Mbps in-memory mesh, partitions of the benchmark's shape —
// and holds the model's All-Gather term to it. The emulated link never runs
// ahead of the model, whatever the host does, so the fastest of ten rounds is
// compared: within 15% at K = 2 and 3, where direct exchange meets the
// floor; from K = 4 on direct exchange is schedule-limited (≈ 10 partition
// times against a floor of 6 at K = 4, 16 against 10 at K = 5) and the term
// only bounds it below. The term moved the prediction at odd K alone, so with
// K = 3 and 5 every EXPERIMENTS cell it moved has a measurement behind it.
func TestAllGatherTermMatchesTheLink(t *testing.T) {
	gatherTermMatchesTheLink(t, model.KindEncoder, comm.Everyone)
}

// TestPrefixGatherTermMatchesTheLink is the same for a decoder's gather, in
// which a partition goes to the members after its sender only: 1 partition
// time at K = 2 and 3 at K = 3, where the model predicts the exchange, and a
// floor from K = 4 on (≈ 5.2 against 3 at K = 4, 7.2 against 5 at K = 5).
func TestPrefixGatherTermMatchesTheLink(t *testing.T) {
	gatherTermMatchesTheLink(t, model.KindDecoder, comm.Successors)
}

func gatherTermMatchesTheLink(t *testing.T, kind model.Kind, readers comm.Readers) {
	const mbps, rounds = 50, 10
	for _, k := range []int{2, 3, 4, 5} {
		n := 96 - 96%k // whole rows per device, as the model's N/K assumes
		cfg := model.Config{Name: "one-gather", Kind: kind, Layers: 2, F: 128, Heads: 4, FFN: 256,
			Act: tensor.GELU, VocabSize: 100, MaxSeq: n, NumClasses: 2}
		sys := System{Model: cfg, N: n, K: k, Net: netem.Profile{BandwidthMbps: mbps}, Device: EdgeCPU, CommEfficiency: 1}
		b, err := sys.Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		predicted := b.Comm // two layers: one gather
		peers, err := comm.NewMemMesh(k, sys.Net)
		if err != nil {
			t.Fatal(err)
		}
		blob := tensor.Encode(nil, tensor.New(n/k, cfg.F))
		best := time.Duration(1<<62 - 1)
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			start := time.Now()
			for r := range peers {
				wg.Add(1)
				go func(p comm.Peer) {
					defer wg.Done()
					if _, err := comm.GatherTo(context.Background(), p, readers, blob); err != nil {
						t.Error(err)
					}
				}(peers[r])
			}
			wg.Wait()
			best = min(best, time.Since(start))
		}
		_ = peers[0].Close()
		ratio := float64(best) / float64(predicted)
		t.Logf("K=%d: model %v, link %v (×%.2f)", k, predicted, best, ratio)
		if ratio < 0.99 || (k <= 3 && ratio > 1.15) {
			t.Errorf("K=%d: a %s's gather took %v on the link, the model says %v (×%.2f)", k, kind, best, predicted, ratio)
		}
	}
}

func TestFig4ShapeTPSlowerThanSingleAt500(t *testing.T) {
	// Paper: at 500 Mbps, tensor parallelism is slower than single-device
	// for every K > 1.
	single, err := bertSystem(1, 500).Predict(cluster.StrategySingle)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 6; k++ {
		tp, err := bertSystem(k, 500).Predict(cluster.StrategyTensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Total() <= single.Total() {
			t.Fatalf("K=%d: TP %v not slower than single %v at 500 Mbps", k, tp.Total(), single.Total())
		}
	}
}

func TestFig4VoltageBeatsTPEverywhere(t *testing.T) {
	for k := 2; k <= 6; k++ {
		v, err := bertSystem(k, 500).Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := bertSystem(k, 500).Predict(cluster.StrategyTensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if v.Total() >= tp.Total() {
			t.Fatalf("K=%d: voltage %v not faster than TP %v", k, v.Total(), tp.Total())
		}
	}
}

func TestFig5ShapeBandwidthSweep(t *testing.T) {
	// Paper's Fig. 5 at K=6: TP improves steeply with bandwidth but stays
	// above Voltage; Voltage beats single device from ≈400 Mbps; at 200
	// Mbps both lose to single device.
	single, err := bertSystem(1, 500).Predict(cluster.StrategySingle)
	if err != nil {
		t.Fatal(err)
	}
	singleLat := single.Compute // single-device latency is ~all compute
	_ = singleLat

	var prevTP time.Duration = 1<<62 - 1
	for _, mbps := range []float64{200, 400, 600, 800, 1000} {
		v, err := bertSystem(6, mbps).Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := bertSystem(6, mbps).Predict(cluster.StrategyTensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Total() >= prevTP {
			t.Fatalf("TP latency not improving with bandwidth at %v Mbps", mbps)
		}
		prevTP = tp.Total()
		if v.Total() >= tp.Total() {
			t.Fatalf("voltage slower than TP at %v Mbps", mbps)
		}
	}
	// At 200 Mbps Voltage loses to single device; at 1000 Mbps it wins.
	v200, _ := bertSystem(6, 200).Predict(cluster.StrategyVoltage)
	if v200.Total() <= single.Total() {
		t.Fatalf("voltage at 200 Mbps (%v) should lose to single (%v)", v200.Total(), single.Total())
	}
	v1000, _ := bertSystem(6, 1000).Predict(cluster.StrategyVoltage)
	if v1000.Total() >= single.Total() {
		t.Fatalf("voltage at 1000 Mbps (%v) should beat single (%v)", v1000.Total(), single.Total())
	}
	// TP at 200 Mbps is drastically worse than single (paper: ≈4.2×).
	tp200, _ := bertSystem(6, 200).Predict(cluster.StrategyTensorParallel)
	if ratio := float64(tp200.Total()) / float64(single.Total()); ratio < 2 {
		t.Fatalf("TP at 200 Mbps only %.1f× single, paper shows ≈4×", ratio)
	}
}

func TestCommBytesPerLayerFormulas(t *testing.T) {
	s := bertSystem(4, 500)
	nf := 4.0 * 200 * 1024
	if got := s.CommBytesPerLayer(cluster.StrategyVoltage); got != 3*nf/4 {
		t.Fatalf("voltage comm %v, want %v", got, 3*nf/4)
	}
	if got := s.CommBytesPerLayer(cluster.StrategyTensorParallel); got != 4*3*nf/4 {
		t.Fatalf("tp comm %v, want %v", got, 4*3*nf/4)
	}
	if got := s.CommBytesPerLayer(cluster.StrategySingle); got != 0 {
		t.Fatalf("single comm %v", got)
	}
	ratio := s.CommBytesPerLayer(cluster.StrategyTensorParallel) / s.CommBytesPerLayer(cluster.StrategyVoltage)
	if ratio != 4 {
		t.Fatalf("comm ratio %v, want exactly 4 (the paper's headline)", ratio)
	}
}

func TestSpeedupVsSingle(t *testing.T) {
	sp, err := bertSystem(6, 500).SpeedupVsSingle(cluster.StrategyVoltage)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1 {
		t.Fatalf("voltage K=6 speedup %v, want > 1", sp)
	}
	spTP, err := bertSystem(6, 500).SpeedupVsSingle(cluster.StrategyTensorParallel)
	if err != nil {
		t.Fatal(err)
	}
	if spTP >= 1 {
		t.Fatalf("TP K=6 speedup %v, want < 1 at 500 Mbps", spTP)
	}
	bad := bertSystem(6, 500)
	bad.N = 0
	if _, err := bad.SpeedupVsSingle(cluster.StrategyVoltage); err == nil {
		t.Fatal("want error")
	}
}

func TestBreakdownComponents(t *testing.T) {
	b, err := bertSystem(4, 500).Predict(cluster.StrategyVoltage)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compute <= 0 || b.Comm <= 0 || b.Boundary <= 0 {
		t.Fatalf("breakdown has non-positive components: %+v", b)
	}
	if b.Total() != b.Compute+b.Comm+b.Boundary {
		t.Fatal("Total != sum of parts")
	}
	// Unlimited bandwidth → zero comm/boundary serialization (latency
	// only).
	free := System{Model: model.BERTLarge(), N: 200, K: 4, Device: EdgeCPU}
	fb, err := free.Predict(cluster.StrategyVoltage)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Comm != 0 || fb.Boundary != 0 {
		t.Fatalf("unshaped profile has comm %v boundary %v", fb.Comm, fb.Boundary)
	}
}

func TestK1MatchesSingleCompute(t *testing.T) {
	// Voltage with K=1 computes the full sequence on one device: its
	// compute must equal the single-device compute exactly.
	v, err := bertSystem(1, 500).Predict(cluster.StrategyVoltage)
	if err != nil {
		t.Fatal(err)
	}
	s, err := bertSystem(1, 500).Predict(cluster.StrategySingle)
	if err != nil {
		t.Fatal(err)
	}
	if v.Compute != s.Compute {
		t.Fatalf("K=1 voltage compute %v != single %v", v.Compute, s.Compute)
	}
	if v.Comm != 0 {
		t.Fatalf("K=1 voltage comm %v", v.Comm)
	}
	tp, err := bertSystem(1, 500).Predict(cluster.StrategyTensorParallel)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Comm != 0 {
		t.Fatalf("K=1 TP comm %v", tp.Comm)
	}
}

func TestOtherModelsShapeHolds(t *testing.T) {
	// The Fig. 4 shape holds for ViT (N=197) and GPT-2 (N=200) too.
	for _, cfg := range []model.Config{model.ViTBase(), model.GPT2()} {
		n := cfg.SeqLen(200)
		single, err := (System{Model: cfg, N: n, K: 1,
			Net: netem.EdgeDefault, Device: EdgeCPU}).Predict(cluster.StrategySingle)
		if err != nil {
			t.Fatal(err)
		}
		v6, err := (System{Model: cfg, N: n, K: 6,
			Net: netem.EdgeDefault, Device: EdgeCPU}).Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		tp6, err := (System{Model: cfg, N: n, K: 6,
			Net: netem.EdgeDefault, Device: EdgeCPU}).Predict(cluster.StrategyTensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if v6.Total() >= single.Total() {
			t.Fatalf("%s: voltage K=6 (%v) not faster than single (%v)", cfg.Name, v6.Total(), single.Total())
		}
		if tp6.Total() <= single.Total() {
			t.Fatalf("%s: TP K=6 (%v) not slower than single (%v)", cfg.Name, tp6.Total(), single.Total())
		}
	}
}
