// Benchmarks regenerating the paper's evaluation, one family per figure or
// table. cmd/voltage-bench prints the full paper-style series; these
// testing.B benches measure the same experiments at benchmark-friendly
// scale so `go test -bench=.` exercises every experiment code path and
// reports per-configuration latencies and communication volumes.
//
// Mapping (see DESIGN.md §3):
//
//	Fig. 4  → BenchmarkFig4DeviceScaling
//	Fig. 5  → BenchmarkFig5Bandwidth
//	Fig. 6  → BenchmarkFig6AttentionPartition (paper-scale settings)
//	Table A → BenchmarkTableACommVolume (bytes/op metrics)
//	Table B → BenchmarkTableBTheoremSweep
//	Ablations → BenchmarkAblation*
package voltage_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"voltage"
	"voltage/internal/attention"
	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/harness"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// benchCfg is the benchmark-scale transformer: the paper models'
// architecture shrunk (F=256, H=8, 2 layers) so a full distributed
// inference fits in tens of milliseconds. All figure *shapes* are
// dimension-generic; cmd/voltage-bench runs the full-size presets.
func benchCfg() model.Config {
	return model.Config{
		Name: "bench-encoder", Kind: model.KindEncoder,
		Layers: 2, F: 256, Heads: 8, FFN: 1024, Act: tensor.GELU,
		VocabSize: 1000, MaxSeq: 256, NumClasses: 2,
	}
}

const benchSeqLen = 128

func benchInput(b *testing.B, m *model.Model) *tensor.Matrix {
	b.Helper()
	ids := make([]int, benchSeqLen)
	for i := range ids {
		ids[i] = (i*31 + 7) % m.Cfg.VocabSize
	}
	x, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// benchVoltage times Voltage inferences of the bench input through the
// serving cluster — the system; at K = 1 the single-device baseline.
func benchVoltage(b *testing.B, k int, opts cluster.Options) {
	c, err := cluster.NewMem(benchCfg(), k, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	x := benchInput(b, c.Model(0))
	ctx := context.Background()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Infer(ctx, cluster.StrategyVoltage, x)
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.TotalBytesSent()
	}
	b.ReportMetric(float64(bytes), "workerB/op")
}

// benchSubject times one of the baseline subjects on the harness's one-shot
// mesh (weight seed 1, as the cluster's default).
func benchSubject(b *testing.B, k int, profile netem.Profile, run func(*harness.Mesh, *tensor.Matrix) (*harness.Run, error)) {
	mesh, err := harness.NewMesh(benchCfg(), k, profile, harness.Calibration{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := benchInput(b, mesh.Model)
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(mesh, x)
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.TotalBytesSent()
	}
	b.ReportMetric(float64(bytes), "workerB/op")
}

func tensorParallel(m *harness.Mesh, x *tensor.Matrix) (*harness.Run, error) {
	return m.TensorParallel(context.Background(), x)
}

// BenchmarkFig4DeviceScaling measures end-to-end latency per strategy and
// device count at the paper's default 500 Mbps (Fig. 4); K=1/voltage is the
// single-device line.
func BenchmarkFig4DeviceScaling(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	profile := netem.Profile{BandwidthMbps: 500, Latency: 200 * time.Microsecond}
	for _, k := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("K=%d/%s", k, cluster.StrategyVoltage), func(b *testing.B) {
			benchVoltage(b, k, cluster.Options{Profile: profile})
		})
		b.Run(fmt.Sprintf("K=%d/%s", k, cluster.StrategyTensorParallel), func(b *testing.B) {
			benchSubject(b, k, profile, tensorParallel)
		})
	}
}

// BenchmarkFig5Bandwidth measures Voltage and tensor parallelism across
// the paper's bandwidth sweep at fixed K (Fig. 5).
func BenchmarkFig5Bandwidth(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	const k = 4
	for _, mbps := range []float64{200, 500, 1000} {
		profile := netem.Profile{BandwidthMbps: mbps, Latency: 200 * time.Microsecond}
		b.Run(fmt.Sprintf("bw=%.0fMbps/%s", mbps, cluster.StrategyVoltage), func(b *testing.B) {
			benchVoltage(b, k, cluster.Options{Profile: profile})
		})
		b.Run(fmt.Sprintf("bw=%.0fMbps/%s", mbps, cluster.StrategyTensorParallel), func(b *testing.B) {
			benchSubject(b, k, profile, tensorParallel)
		})
	}
}

// BenchmarkFig6AttentionPartition times the isolated multi-head
// self-attention partition at the paper's exact synthetic settings
// (Fig. 6): (H,FH) ∈ {(16,64),(8,128),(4,256)}, N=200, Voltage's adaptive
// order vs the naive order.
func BenchmarkFig6AttentionPartition(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	const n = 200
	for _, st := range harness.DefaultFig6Settings {
		f := st.H * st.FH
		mh, err := attention.RandomMultiHead(tensor.NewRNG(1), st.H, f, st.FH)
		if err != nil {
			b.Fatal(err)
		}
		x := tensor.NewRNG(2).Normal(n, f, 1)
		for _, k := range []int{2, 6, 10} {
			xp, err := x.RowSlice(0, n/k)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("H=%d_FH=%d/K=%d/voltage", st.H, st.FH, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := mh.ForwardAdaptive(x, xp); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("H=%d_FH=%d/K=%d/naive", st.H, st.FH, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mh.Forward(x, xp, flopcount.OrderNaive); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableACommVolume reports per-inference worker traffic as
// custom metrics (Table A: Voltage vs tensor parallelism, 4× gap).
func BenchmarkTableACommVolume(b *testing.B) {
	b.Run(cluster.StrategyVoltage.String(), func(b *testing.B) {
		benchVoltage(b, 4, cluster.Options{})
	})
	b.Run(cluster.StrategyTensorParallel.String(), func(b *testing.B) {
		benchSubject(b, 4, netem.Unlimited, tensorParallel)
	})
}

// BenchmarkTableBTheoremSweep measures the exhaustive Theorem 2
// verification sweep (Table B).
func BenchmarkTableBTheoremSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := harness.VerifyTheorems(150)
		if rep.PredicateErrors != 0 {
			b.Fatalf("%d predicate errors", rep.PredicateErrors)
		}
	}
}

// BenchmarkAblationOrder compares the three per-layer attention policies
// (adaptive, always-naive, always-reordered) at a partition size where
// Theorem 2 favours reordering — the DESIGN.md ablation 1.
func BenchmarkAblationOrder(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	l, err := model.NewRandomLayer(benchCfg(), tensor.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewRNG(4).Normal(benchSeqLen, l.F(), 1)
	r := partition.Range{From: 0, To: benchSeqLen / 8}
	cases := []struct {
		name  string
		order flopcount.Order
		adapt bool
	}{
		{name: "adaptive", adapt: true},
		{name: "naive", order: flopcount.OrderNaive},
		{name: "reordered", order: flopcount.OrderReordered},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if c.adapt {
					_, _, err = l.ForwardPartition(x, r)
				} else {
					_, err = l.ForwardPartitionFixedOrder(x, r, c.order)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCollective compares naive vs ring collectives on a
// bandwidth-shaped mesh — the DESIGN.md ablation 2.
func BenchmarkAblationCollective(b *testing.B) {
	const k = 4
	m := tensor.NewRNG(5).Normal(benchSeqLen, 256, 1)
	scheme, err := partition.Even(k)
	if err != nil {
		b.Fatal(err)
	}
	ranges, err := scheme.Ranges(benchSeqLen)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, fn func(p comm.Peer, rank int) error) {
		peers, err := comm.NewMemMesh(k, netem.Profile{BandwidthMbps: 500})
		if err != nil {
			b.Fatal(err)
		}
		defer peers[0].Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, k)
			for r := 0; r < k; r++ {
				go func(r int) { errs <- fn(peers[r], r) }(r)
			}
			for j := 0; j < k; j++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("allgather/naive", func(b *testing.B) {
		run(b, func(p comm.Peer, rank int) error {
			mine, err := m.RowSlice(ranges[rank].From, ranges[rank].To)
			if err != nil {
				return err
			}
			_, err = comm.AllGatherMatrix(context.Background(), p, mine, ranges, false)
			return err
		})
	})
	b.Run("allgather/ring", func(b *testing.B) {
		run(b, func(p comm.Peer, rank int) error {
			mine, err := m.RowSlice(ranges[rank].From, ranges[rank].To)
			if err != nil {
				return err
			}
			_, err = comm.AllGatherMatrix(context.Background(), p, mine, ranges, true)
			return err
		})
	})
	b.Run("allreduce/naive", func(b *testing.B) {
		run(b, func(p comm.Peer, rank int) error {
			_, err := comm.AllReduceSum(context.Background(), p, m)
			return err
		})
	})
	b.Run("allreduce/ring", func(b *testing.B) {
		run(b, func(p comm.Peer, rank int) error {
			_, err := comm.RingAllReduceSum(context.Background(), p, m)
			return err
		})
	})
}

// BenchmarkAblationFusedQK measures the paper's "deceptive" optimization:
// precomputing WQ·WKᵀ helps single-head attention but loses to the
// Theorem 2 pick in the multi-head setting — the DESIGN.md ablation 3.
func BenchmarkAblationFusedQK(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	const n, p = 256, 16
	bench := func(b *testing.B, f, fh int, order flopcount.Order) {
		rng := tensor.NewRNG(6)
		h, err := attention.NewHeadWeights(rng.XavierNormal(f, fh), rng.XavierNormal(f, fh), rng.XavierNormal(f, fh))
		if err != nil {
			b.Fatal(err)
		}
		x := rng.Normal(n, f, 1)
		xp, err := x.RowSlice(0, p)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the fused cache outside the timed loop (it is precomputed
		// once before inference, as in the paper's analysis).
		if _, err := attention.Compute(h, x, xp, order); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := attention.Compute(h, x, xp, order); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("single-head/fused", func(b *testing.B) { bench(b, 256, 256, flopcount.OrderFusedQKLate) })
	b.Run("single-head/reordered", func(b *testing.B) { bench(b, 256, 256, flopcount.OrderReordered) })
	b.Run("multi-head/fused", func(b *testing.B) { bench(b, 256, 32, flopcount.OrderFusedQKLate) })
	b.Run("multi-head/reordered", func(b *testing.B) { bench(b, 256, 32, flopcount.OrderReordered) })
}

// BenchmarkAblationScheme compares even vs skewed partition schemes on a
// homogeneous cluster (the even scheme should win) — the DESIGN.md
// ablation 4 on §V-B's ratio-vector flexibility.
func BenchmarkAblationScheme(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	const k = 4
	schemes := map[string][]float64{
		"even":   {0.25, 0.25, 0.25, 0.25},
		"skewed": {0.55, 0.15, 0.15, 0.15},
	}
	for name, ratios := range schemes {
		b.Run(name, func(b *testing.B) {
			scheme, err := partition.New(ratios)
			if err != nil {
				b.Fatal(err)
			}
			benchVoltage(b, k, cluster.Options{Scheme: scheme})
		})
	}
}

// BenchmarkExtCachedDecode compares full-recompute generation against the
// distributed KV-cached decoder (per generated token).
func BenchmarkExtCachedDecode(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	cfg := model.TinyDecoder()
	cfg.MaxSeq = 4096
	prompt := make([]int, 64)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.VocabSize
	}
	const steps = 8
	b.Run("recompute", func(b *testing.B) {
		mesh, err := harness.NewMesh(cfg, 3, netem.Unlimited, harness.Calibration{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mesh.Recompute(ctx, prompt, steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kv-cached", func(b *testing.B) {
		c, err := cluster.NewMem(cfg, 3, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.GenerateVoltage(ctx, prompt, steps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtQuantizedComm measures exact vs int8 All-Gather inference at
// a constrained bandwidth (low enough that the 4× payload reduction beats
// the quantize/dequantize CPU cost).
func BenchmarkExtQuantizedComm(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	profile := netem.Profile{BandwidthMbps: 10}
	b.Run("exact", func(b *testing.B) {
		benchVoltage(b, 4, cluster.Options{Profile: profile})
	})
	b.Run("int8", func(b *testing.B) {
		benchSubject(b, 4, profile, func(m *harness.Mesh, x *tensor.Matrix) (*harness.Run, error) {
			return m.Quantized(context.Background(), x)
		})
	})
}

// BenchmarkExtPipelineBatch measures the pipeline baseline's makespan per
// batch size (throughput is its only win; first-request latency never
// improves).
func BenchmarkExtPipelineBatch(b *testing.B) {
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)
	for _, batch := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchSubject(b, 3, netem.Unlimited, func(m *harness.Mesh, x *tensor.Matrix) (*harness.Run, error) {
				xs := make([]*tensor.Matrix, batch)
				for i := range xs {
					xs[i] = x
				}
				res, err := m.Pipeline(context.Background(), xs)
				if err != nil {
					return nil, err
				}
				return res.Run, nil
			})
		})
	}
}
