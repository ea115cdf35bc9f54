// Image classification at the edge: ViT-Base/16 on a 224×224 image
// distributed position-wise across devices (the paper's Fig. 4b workload).
// The 196 image patches plus the class token form a 197-position sequence
// that Voltage slices across the cluster.
//
// Run with:
//
//	go run ./examples/imageclass
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"voltage"
)

func main() {
	layers := flag.Int("layers", 2, "ViT stack depth (0 = full 12 layers)")
	k := flag.Int("k", 4, "number of edge devices")
	flag.Parse()
	if err := run(*layers, *k); err != nil {
		log.Fatal(err)
	}
}

func run(layers, k int) error {
	cfg := voltage.ViTBase()
	if layers > 0 {
		cfg = cfg.Scaled(layers)
	}

	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	opts := voltage.ClusterOptions{Profile: voltage.EdgeDefaultProfile}
	engine, err := voltage.NewEngine(cfg, k, opts)
	if err != nil {
		return err
	}
	defer engine.Close()
	// The single-device baseline is the same system over one device.
	one, err := voltage.NewEngine(cfg, 1, opts)
	if err != nil {
		return err
	}
	defer one.Close()

	// The paper's test input: one 224×224 image (synthetic; latency does
	// not depend on pixel values).
	img := voltage.RandomImage(7, cfg.Channels, cfg.ImageSize)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	fmt.Printf("ViT-Base/16 (%d layers) on a %dx%d image → %d positions, %d devices\n\n",
		cfg.Layers, cfg.ImageSize, cfg.ImageSize, cfg.SeqLen(0), k)

	single, err := one.ClassifyImage(ctx, voltage.StrategyVoltage, img)
	if err != nil {
		return err
	}
	fmt.Printf("single device:    class %4d  latency %v\n",
		single.Class, single.Run.Latency.Round(time.Millisecond))

	dist, err := engine.ClassifyImage(ctx, voltage.StrategyVoltage, img)
	if err != nil {
		return err
	}
	fmt.Printf("voltage (K=%d):    class %4d  latency %v  (%.2f× speed-up)\n",
		k, dist.Class, dist.Run.Latency.Round(time.Millisecond),
		float64(single.Run.Latency)/float64(dist.Run.Latency))

	if single.Class != dist.Class {
		return fmt.Errorf("distribution changed the prediction: %d vs %d", single.Class, dist.Class)
	}
	fmt.Println("\nPredictions agree: position-wise partitioning is exact.")
	return nil
}
