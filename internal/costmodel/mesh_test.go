package costmodel_test

import (
	"context"
	"testing"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/costmodel"
	"voltage/internal/harness"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// TestDecoderCriticalPathMatchesAPacedPass prices a decoder's pass as the
// devices run it — cut by cost (positionwise.Slice), the heaviest member's
// compute chain the critical path — and measures the same pass on a paced
// harness.Mesh at K = 2…4 over an unshaped link, where compute is all there
// is. A paced sleep never wakes early, so the pass cannot beat the prediction;
// what it takes beyond it is host overhead. An even cut's prediction — the
// last slice attending to all N rows — sits 10–20 % above what such a pass
// takes, and fails the lower bound.
func TestDecoderCriticalPathMatchesAPacedPass(t *testing.T) {
	const rate, n = 1e8, 96
	cfg := model.Config{Name: "paced-decoder", Kind: model.KindDecoder, Layers: 4, F: 128, Heads: 4, FFN: 256,
		Act: tensor.GELU, VocabSize: 100, MaxSeq: n + 1, NumClasses: 2}
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = (7*i + 3) % cfg.VocabSize
	}
	for _, k := range []int{2, 3, 4} {
		sys := costmodel.System{Model: cfg, N: n, K: k, Net: netem.Unlimited, Device: costmodel.DeviceProfile{FlopsPerSec: rate}}
		b, err := sys.Predict(cluster.StrategyVoltage)
		if err != nil {
			t.Fatal(err)
		}
		mesh, err := harness.NewMesh(cfg, k, netem.Unlimited, harness.Calibration{DeviceFlops: rate, BwScale: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<62 - 1)
		for range 2 {
			_, runs, err := mesh.Recompute(context.Background(), prompt, 1)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, runs[0].Latency)
		}
		ratio := float64(best) / float64(b.Total())
		t.Logf("K=%d: model %v, paced pass %v (×%.3f)", k, b.Total(), best, ratio)
		if ratio < 0.99 || ratio > 1.35 {
			t.Errorf("K=%d: a paced pass took %v, the model says %v (×%.2f)", k, best, b.Total(), ratio)
		}
	}
}
