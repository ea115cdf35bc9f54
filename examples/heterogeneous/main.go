// Heterogeneous edge cluster: three devices where one is 4× slower — the
// realistic edge scenario §V-B's ratio-vector schemes were designed for.
// With the even scheme every layer waits for the straggler; a scheme
// weighted by the device rates gives the slow device a smaller slice and
// recovers most of the loss, while computing exactly the same outputs. Here
// the rates are known up front; a running cluster learns the ratios from its
// own per-rank profile and re-partitions between requests
// (voltage-server -adapt).
//
// Run with:
//
//	go run ./examples/heterogeneous
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
	layers := flag.Int("layers", 8, "stack depth")
	flag.Parse()
	if err := run(*layers); err != nil {
		log.Fatal(err)
	}
}

func run(layers int) error {
	cfg := voltage.Tiny().Scaled(layers)
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	// Device 2 runs at a quarter of the speed of the other two.
	base := 5e7
	rates := []float64{base, base, base / 4}

	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return err
	}
	ids := tok.EncodeWords(48, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	measure := func(scheme *voltage.PartitionScheme) (time.Duration, int, error) {
		engine, err := voltage.NewEngine(cfg, 3, voltage.ClusterOptions{
			HeteroDeviceFlops: rates,
			Scheme:            scheme,
		})
		if err != nil {
			return 0, 0, err
		}
		defer engine.Close()
		pred, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
		if err != nil {
			return 0, 0, err
		}
		return pred.Run.Latency, pred.Class, nil
	}

	fmt.Printf("3 devices, rates %.0f/%.0f/%.0f MMAC/s, %d layers, N=%d\n\n",
		rates[0]/1e6, rates[1]/1e6, rates[2]/1e6, cfg.Layers, len(ids))

	evenLat, evenClass, err := measure(nil)
	if err != nil {
		return err
	}
	fmt.Printf("even scheme    : %v (every layer waits for the slow device)\n", evenLat.Round(time.Millisecond))

	weighted, err := voltage.WeightedScheme(rates)
	if err != nil {
		return err
	}
	wLat, wClass, err := measure(weighted)
	if err != nil {
		return err
	}
	fmt.Printf("weighted scheme: %v (%.0f%% faster; the slow device gets 1/9 of the rows)\n",
		wLat.Round(time.Millisecond), 100*(1-float64(wLat)/float64(evenLat)))

	if evenClass != wClass {
		return fmt.Errorf("schemes disagree on the prediction: %d vs %d", evenClass, wClass)
	}
	fmt.Println("\nIdentical predictions: the scheme moves work, never changes results.")
	return nil
}
