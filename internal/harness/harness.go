// Package harness regenerates every figure and in-text table of the
// paper's evaluation section as printable data series.
//
// Each experiment comes in up to two modes:
//
//   - Predicted: the analytic cost model at the paper's full scale
//     (BERT-Large at 24 layers, etc.) — instant and deterministic.
//   - Measured: real execution on emulated devices. The transformer
//     stacks run genuinely (our Go tensor kernels are slower than MKL, so
//     measured mode uses depth-scaled models — the per-layer behaviour,
//     which is what the figures show, is unchanged). Voltage is measured
//     through the serving runtime (package cluster; one device is the
//     single-device baseline), the baselines it is compared against on the
//     harness's own one-shot mesh (mesh.go).
//
// The harness pins the tensor worker count to 1 during measured runs so
// every emulated device computes single-threaded, as in the paper's
// single-vCPU VMs.
package harness

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/attention"
	"voltage/internal/cluster"
	"voltage/internal/costmodel"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// DefaultModels returns the paper's three evaluation models.
func DefaultModels() []model.Config {
	return []model.Config{model.BERTLarge(), model.ViTBase(), model.GPT2()}
}

// seqLen mirrors the paper's workloads: a 200-token input for the text
// models (clamped to the model's maximum for small test configurations)
// and a 224×224 image (197 positions) for ViT.
func seqLen(cfg model.Config) int {
	n := cfg.SeqLen(200)
	if cfg.Kind != model.KindVision && n > cfg.MaxSeq {
		n = cfg.MaxSeq
	}
	return n
}

// singleThreaded pins the matmul worker count to 1 for the duration of fn,
// emulating single-vCPU devices.
func singleThreaded(fn func()) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	fn()
}

// ---------------------------------------------------------------------------
// Fig. 4 — inference latency vs device count.

// Fig4Row is one point of Fig. 4: latencies at a device count.
type Fig4Row struct {
	Model      string
	K          int
	SingleSec  float64
	VoltageSec float64
	TPSec      float64
}

// Fig4Predicted regenerates Fig. 4 from the cost model at full paper scale.
func Fig4Predicted(cfg model.Config, maxK int, bandwidthMbps float64) ([]Fig4Row, error) {
	rows := make([]Fig4Row, 0, maxK)
	for k := 1; k <= maxK; k++ {
		sys := costmodel.System{
			Model: cfg, N: seqLen(cfg), K: k,
			Net:    netem.Profile{BandwidthMbps: bandwidthMbps, Latency: 200 * time.Microsecond},
			Device: costmodel.EdgeCPU,
		}
		single, err := sys.Predict(cluster.StrategySingle)
		if err != nil {
			return nil, err
		}
		v, err := sys.Predict(cluster.StrategyVoltage)
		if err != nil {
			return nil, err
		}
		tp, err := sys.Predict(cluster.StrategyTensorParallel)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Model: cfg.Name, K: k,
			SingleSec:  single.Total().Seconds(),
			VoltageSec: v.Total().Seconds(),
			TPSec:      tp.Total().Seconds(),
		})
	}
	return rows, nil
}

// Fig4Measured regenerates Fig. 4 by real execution. cfg should be
// depth-scaled (e.g. cfg.Scaled(2)) to keep pure-Go compute tractable; the
// relative curve shapes are depth-independent. profile carries the
// paper-scale bandwidth; cal (if non-zero) paces the devices and rescales
// the bandwidth to this host. Voltage runs through the serving cluster — at
// K = 1 that is the single-device baseline — and tensor parallelism on the
// one-shot mesh.
func Fig4Measured(ctx context.Context, cfg model.Config, maxK int, profile netem.Profile, cal Calibration, seed int64) ([]Fig4Row, error) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	var rows []Fig4Row
	for k := 1; k <= maxK; k++ {
		mesh, x, err := subject(cfg, k, profile, cal, seed)
		if err != nil {
			return nil, err
		}
		v, err := mesh.voltage(ctx, k, x)
		if err != nil {
			return nil, fmt.Errorf("K=%d voltage: %w", k, err)
		}
		tp, err := mesh.TensorParallel(ctx, x)
		if err != nil {
			return nil, fmt.Errorf("K=%d tensor-parallel: %w", k, err)
		}
		rows = append(rows, Fig4Row{
			Model: cfg.Name, K: k,
			VoltageSec: v.Latency.Seconds(),
			TPSec:      tp.Latency.Seconds(),
		})
		rows[k-1].SingleSec = rows[0].VoltageSec
	}
	return rows, nil
}

// subject builds the one-shot mesh of an experiment point and the paper's
// workload embedded for it.
func subject(cfg model.Config, k int, profile netem.Profile, cal Calibration, seed int64) (*Mesh, *tensor.Matrix, error) {
	mesh, err := NewMesh(cfg, k, profile, cal, seed)
	if err != nil {
		return nil, nil, err
	}
	x, err := embedWorkload(mesh.Model, seqLen(cfg))
	return mesh, x, err
}

// embedWorkload builds the paper's synthetic request input: a random token
// sequence for text models, a random image for vision models.
func embedWorkload(m *model.Model, n int) (*tensor.Matrix, error) {
	cfg := m.Cfg
	if cfg.Kind == model.KindVision {
		im := model.RandomImage(tensor.NewRNG(12345), cfg.Channels, cfg.ImageSize)
		return m.Embed.EmbedImage(im)
	}
	rng := tensor.NewRNG(12345)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(cfg.VocabSize)
	}
	return m.Embed.EmbedTokens(ids)
}

// ---------------------------------------------------------------------------
// Fig. 5 — inference latency vs bandwidth at fixed K.

// Fig5Row is one point of Fig. 5.
type Fig5Row struct {
	Model         string
	BandwidthMbps float64
	SingleSec     float64 // the orange dashed reference line
	VoltageSec    float64
	TPSec         float64
}

// DefaultBandwidths is the paper's sweep.
var DefaultBandwidths = []float64{200, 400, 600, 800, 1000}

// Fig5Predicted regenerates Fig. 5 from the cost model.
func Fig5Predicted(cfg model.Config, k int, bandwidths []float64) ([]Fig5Row, error) {
	singleSys := costmodel.System{
		Model: cfg, N: seqLen(cfg), K: 1,
		Net:    netem.Profile{BandwidthMbps: 500, Latency: 200 * time.Microsecond},
		Device: costmodel.EdgeCPU,
	}
	single, err := singleSys.Predict(cluster.StrategySingle)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, 0, len(bandwidths))
	for _, bw := range bandwidths {
		sys := costmodel.System{
			Model: cfg, N: seqLen(cfg), K: k,
			Net:    netem.Profile{BandwidthMbps: bw, Latency: 200 * time.Microsecond},
			Device: costmodel.EdgeCPU,
		}
		v, err := sys.Predict(cluster.StrategyVoltage)
		if err != nil {
			return nil, err
		}
		tp, err := sys.Predict(cluster.StrategyTensorParallel)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Model: cfg.Name, BandwidthMbps: bw,
			SingleSec:  single.Total().Seconds(),
			VoltageSec: v.Total().Seconds(),
			TPSec:      tp.Total().Seconds(),
		})
	}
	return rows, nil
}

// Fig5Measured regenerates Fig. 5 by real execution, sweeping the emulated
// bandwidth at a fixed K. cal (if non-zero) paces the devices and rescales
// the swept bandwidths to this host; the rows report the paper-scale
// bandwidths.
func Fig5Measured(ctx context.Context, cfg model.Config, k int, bandwidths []float64, cal Calibration, seed int64) ([]Fig5Row, error) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	mesh, x, err := subject(cfg, k, paperLink(500), cal, seed)
	if err != nil {
		return nil, err
	}
	single, err := mesh.voltage(ctx, 1, x)
	if err != nil {
		return nil, err
	}
	c, err := mesh.system(k, false)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var rows []Fig5Row
	for _, bw := range bandwidths {
		mesh.Profile = paperLink(bw)
		c.SetBandwidth(cal.Apply(mesh.Profile).BandwidthMbps)
		v, err := c.Infer(ctx, cluster.StrategyVoltage, x)
		if err != nil {
			return nil, fmt.Errorf("bw %v voltage: %w", bw, err)
		}
		tp, err := mesh.TensorParallel(ctx, x)
		if err != nil {
			return nil, fmt.Errorf("bw %v tp: %w", bw, err)
		}
		rows = append(rows, Fig5Row{
			Model: cfg.Name, BandwidthMbps: bw,
			SingleSec:  single.Latency.Seconds(),
			VoltageSec: v.Latency.Seconds(),
			TPSec:      tp.Latency.Seconds(),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 — self-attention partition speed-up.

// Fig6Setting is one subplot of Fig. 6 (an attention configuration).
type Fig6Setting struct {
	H, FH int
}

// DefaultFig6Settings are the paper's three synthetic layers.
var DefaultFig6Settings = []Fig6Setting{{H: 16, FH: 64}, {H: 8, FH: 128}, {H: 4, FH: 256}}

// DefaultFig6Lengths are the paper's input lengths.
var DefaultFig6Lengths = []int{100, 200, 300}

// Fig6Row is one point of Fig. 6: the speed-up of computing a 1/K output
// partition relative to computing the full output, for the adaptive
// (Voltage) and the naive method.
type Fig6Row struct {
	H, FH, N, K    int
	VoltageSpeedup float64
	NaiveSpeedup   float64
	OrderUsed      flopcount.Order
}

// Fig6Measured regenerates Fig. 6 by timing real multi-head attention
// computations (isolated from the rest of the layer, as in the paper).
func Fig6Measured(settings []Fig6Setting, lengths []int, maxK int, seed int64) ([]Fig6Row, error) {
	var rows []Fig6Row
	var outerErr error
	singleThreaded(func() {
		for _, st := range settings {
			f := st.H * st.FH
			mh, err := attention.RandomMultiHead(tensor.NewRNG(seed), st.H, f, st.FH)
			if err != nil {
				outerErr = err
				return
			}
			for _, n := range lengths {
				x := tensor.NewRNG(seed+int64(n)).Normal(n, f, 1)
				tFull := timeIt(func() {
					if _, err := mh.Forward(x, x, flopcount.OrderNaive); err != nil {
						outerErr = err
					}
				})
				for k := 2; k <= maxK; k++ {
					p := n / k
					if p < 1 {
						p = 1
					}
					xp, err := x.RowSlice(0, p)
					if err != nil {
						outerErr = err
						return
					}
					var order flopcount.Order
					tVoltage := timeIt(func() {
						_, o, err := mh.ForwardAdaptive(x, xp)
						if err != nil {
							outerErr = err
						}
						order = o
					})
					tNaive := timeIt(func() {
						if _, err := mh.Forward(x, xp, flopcount.OrderNaive); err != nil {
							outerErr = err
						}
					})
					if outerErr != nil {
						return
					}
					rows = append(rows, Fig6Row{
						H: st.H, FH: st.FH, N: n, K: k,
						VoltageSpeedup: tFull.Seconds() / tVoltage.Seconds(),
						NaiveSpeedup:   tFull.Seconds() / tNaive.Seconds(),
						OrderUsed:      order,
					})
				}
			}
		}
	})
	return rows, outerErr
}

// Fig6Predicted regenerates Fig. 6 analytically from the FLOP model
// (speed-up = Γ(full)/Γ(partition)).
func Fig6Predicted(settings []Fig6Setting, lengths []int, maxK int) []Fig6Row {
	var rows []Fig6Row
	for _, st := range settings {
		f := st.H * st.FH
		for _, n := range lengths {
			fullShape := flopcount.Shape{N: n, P: n, F: f, FH: st.FH}
			full := float64(flopcount.MustCost(fullShape, flopcount.OrderNaive))
			for k := 2; k <= maxK; k++ {
				p := n / k
				if p < 1 {
					p = 1
				}
				shape := flopcount.Shape{N: n, P: p, F: f, FH: st.FH}
				order := flopcount.SelectOrder(shape)
				rows = append(rows, Fig6Row{
					H: st.H, FH: st.FH, N: n, K: k,
					VoltageSpeedup: full / float64(flopcount.MustCost(shape, order)),
					NaiveSpeedup:   full / float64(flopcount.MustCost(shape, flopcount.OrderNaive)),
					OrderUsed:      order,
				})
			}
		}
	}
	return rows
}

// timeIt measures fn with one warm-up run and reports the faster of two
// timed runs (pure compute, so minimal noise handling suffices).
func timeIt(fn func()) time.Duration {
	fn() // warm-up
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 2; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Table A — communication volume.

// CommRow compares measured per-inference worker traffic against the
// paper's analytic formulas.
type CommRow struct {
	K int
	// Measured payload bytes sent by all workers during one inference.
	VoltageBytes, TPBytes int64
	// Analytic per-device per-layer volumes.
	VoltageFormula, TPFormula float64
	Ratio                     float64 // TPBytes / VoltageBytes
}

// CommVolume measures Table A on a real (tiny, unshaped) deployment.
func CommVolume(ctx context.Context, cfg model.Config, maxK int, seed int64) ([]CommRow, error) {
	var rows []CommRow
	n := seqLen(cfg)
	for k := 2; k <= maxK; k++ {
		mesh, x, err := subject(cfg, k, netem.Unlimited, Calibration{}, seed)
		if err != nil {
			return nil, err
		}
		v, err := mesh.voltage(ctx, k, x)
		if err != nil {
			return nil, err
		}
		tp, err := mesh.TensorParallel(ctx, x)
		if err != nil {
			return nil, err
		}
		sys := costmodel.System{Model: cfg, N: n, K: k, Device: costmodel.EdgeCPU}
		rows = append(rows, CommRow{
			K:              k,
			VoltageBytes:   v.TotalBytesSent(),
			TPBytes:        tp.TotalBytesSent(),
			VoltageFormula: sys.CommBytesPerLayer(cluster.StrategyVoltage),
			TPFormula:      sys.CommBytesPerLayer(cluster.StrategyTensorParallel),
			Ratio:          float64(tp.TotalBytesSent()) / float64(v.TotalBytesSent()),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table B — theorem verification.

// TheoremReport summarizes an exhaustive check of Theorem 2 over a shape
// sweep.
type TheoremReport struct {
	ShapesChecked   int
	PredicateErrors int // Theorem 2 pick not the brute-force optimum
	ReorderedWins   int // shapes where the reordered branch was selected
}

// VerifyTheorems sweeps multi-head-consistent shapes and checks that the
// Theorem 2 predicate always picks the brute-force optimal order.
func VerifyTheorems(maxN int) TheoremReport {
	var rep TheoremReport
	for _, h := range []int{2, 4, 8, 16} {
		for _, fh := range []int{16, 64, 128, 256} {
			for n := 10; n <= maxN; n += 29 {
				for p := 1; p <= n; p += 1 + n/17 {
					s := flopcount.Shape{N: n, P: p, F: h * fh, FH: fh}
					rep.ShapesChecked++
					pick := flopcount.SelectOrder(s)
					if pick == flopcount.OrderReordered {
						rep.ReorderedWins++
					}
					_, best, err := flopcount.BestOrderBruteForce(s)
					if err != nil {
						rep.PredicateErrors++
						continue
					}
					if flopcount.MustCost(s, pick) != best {
						rep.PredicateErrors++
					}
				}
			}
		}
	}
	return rep
}
