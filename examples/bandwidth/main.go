// Bandwidth study (the paper's Fig. 5): fix the cluster at K devices and
// sweep the emulated link bandwidth, comparing Voltage against the
// single-device reference: its single All-Gather per layer crosses below
// the single-device line at edge bandwidths. The figure's tensor-parallel
// curve — two All-Reduces per layer, crossing much later — is
// `voltage-bench -experiment fig5 -mode measured`.
//
// Run with:
//
//	go run ./examples/bandwidth
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
	k := flag.Int("k", 4, "number of edge devices")
	layers := flag.Int("layers", 2, "stack depth")
	flag.Parse()
	if err := run(*k, *layers); err != nil {
		log.Fatal(err)
	}
}

func run(k, layers int) error {
	cfg := voltage.BERTLarge().Scaled(layers)

	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	// Calibrate so the paper's compute:comm balance holds on this host;
	// the printed bandwidths are paper-scale.
	cal := voltage.Calibrate(k)
	opts := voltage.ClusterOptions{
		Profile:     cal.Apply(voltage.NetworkProfile{BandwidthMbps: 500, Latency: 200 * time.Microsecond}),
		DeviceFlops: cal.DeviceFlops,
	}
	engine, err := voltage.NewEngine(cfg, k, opts)
	if err != nil {
		return err
	}
	defer engine.Close()
	one, err := voltage.NewEngine(cfg, 1, opts)
	if err != nil {
		return err
	}
	defer one.Close()

	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return err
	}
	ids := tok.EncodeWords(200, 11)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	single, err := one.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
	if err != nil {
		return err
	}
	fmt.Printf("single-device reference: %v\n\n", single.Run.Latency.Round(time.Millisecond))
	fmt.Printf("%-10s %-14s\n", "Mbps", "voltage")

	for _, mbps := range []float64{200, 400, 600, 800, 1000} {
		engine.Cluster().SetBandwidth(mbps * cal.BwScale)
		v, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
		if err != nil {
			return err
		}
		mark := " "
		if v.Run.Latency < single.Run.Latency {
			mark = "*" // beats single device
		}
		fmt.Printf("%-10.0f %-14v %s\n", mbps, v.Run.Latency.Round(time.Millisecond), mark)
	}
	fmt.Println("\n* = Voltage beats the single-device deployment at this bandwidth.")
	return nil
}
