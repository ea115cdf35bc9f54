// Text classification at the edge: a BERT-Large-shaped encoder distributed
// over a six-device cluster, the paper's headline workload (Fig. 4a).
//
// The full 24-layer BERT-Large is heavy for pure-Go kernels, so the stack
// is depth-scaled to 2 layers by default — per-layer behaviour (which is
// what the paper's figures show) is unchanged. Pass -layers 0 for paper
// depth if you have minutes to spare.
//
// Run with:
//
//	go run ./examples/textclass
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"voltage"
	"voltage/internal/tokenizer"
)

func main() {
	layers := flag.Int("layers", 2, "BERT stack depth (0 = full 24 layers)")
	k := flag.Int("k", 6, "number of edge devices")
	flag.Parse()
	if err := run(*layers, *k); err != nil {
		log.Fatal(err)
	}
}

func run(layers, k int) error {
	cfg := voltage.BERTLarge()
	if layers > 0 {
		cfg = cfg.Scaled(layers)
	}

	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	// Pace each emulated device at a fixed rate that fits this host's
	// cores, and scale the 500 Mbps link to match — this keeps the paper's
	// compute:communication balance regardless of hardware.
	cal := voltage.Calibrate(k)
	fmt.Printf("calibration: device rate %.2f GMAC/s, emulated 500 Mbps → %.1f Mbps\n",
		cal.DeviceFlops/1e9, 500*cal.BwScale)

	opts := voltage.ClusterOptions{
		Profile:     cal.Apply(voltage.EdgeDefaultProfile), // 500 Mbps, the paper's default
		DeviceFlops: cal.DeviceFlops,
	}

	// The paper's workload: a 200-word request.
	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return err
	}
	request := tok.Encode(
		"edge devices are everywhere but a single one is too slow to run " +
			"a large transformer so voltage partitions every layer across " +
			"the room and gathers the pieces between layers")
	ids := tok.EncodeWords(200, 42)
	_ = request // the synthetic 200-word request matches the paper's setup

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	fmt.Printf("BERT-Large (%d layers, F=%d, H=%d) over %d devices, N=%d\n\n",
		cfg.Layers, cfg.F, cfg.Heads, k, len(ids))

	// One device is the single-device baseline; the tensor-parallel column of
	// Fig. 4 is `voltage-bench -experiment fig4 -mode measured`.
	var singleLatency time.Duration
	for _, devices := range []int{1, k} {
		engine, err := voltage.NewEngine(cfg, devices, opts)
		if err != nil {
			return err
		}
		pred, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
		engine.Close()
		if err != nil {
			return fmt.Errorf("K=%d: %w", devices, err)
		}
		line := fmt.Sprintf("K=%-3d latency %-10v class %d  worker traffic %8d B",
			devices, pred.Run.Latency.Round(time.Millisecond), pred.Class, pred.Run.TotalBytesSent())
		if devices == 1 {
			singleLatency = pred.Run.Latency
		} else {
			line += fmt.Sprintf("  (%.2f× vs single)", float64(singleLatency)/float64(pred.Run.Latency))
		}
		fmt.Println(line)
	}
	return nil
}
