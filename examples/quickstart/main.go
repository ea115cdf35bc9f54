// Quickstart: distribute a small transformer across three emulated edge
// devices and compare Voltage against single-device inference.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"voltage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Emulated devices on a 500 Mbps edge network, each limited to one CPU
	// core — the paper's testbed in miniature.
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	opts := voltage.ClusterOptions{Profile: voltage.EdgeDefaultProfile}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A toy classification request. Tokens would normally come from a
	// tokenizer; any ids below the vocab size work.
	request := []int{2, 17, 33, 49, 5, 3}

	// One device is the single-device baseline; three split every layer
	// position-wise.
	var classes []int
	for _, k := range []int{1, 3} {
		engine, err := voltage.NewEngine(voltage.Tiny(), k, opts)
		if err != nil {
			return err
		}
		pred, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, request)
		engine.Close()
		if err != nil {
			return fmt.Errorf("K=%d: %w", k, err)
		}
		fmt.Printf("K=%d → class %d  latency %-8v  bytes moved by workers %d\n",
			k, pred.Class, pred.Run.Latency.Round(time.Microsecond), pred.Run.TotalBytesSent())
		classes = append(classes, pred.Class)
	}
	if classes[0] != classes[1] {
		return fmt.Errorf("distribution changed the prediction: %v", classes)
	}

	// One device and three compute the same mathematical function: Voltage
	// never changes model outputs, only where the math runs.
	fmt.Println("\nBoth deployments produced identical predictions — Voltage is exact.")
	return nil
}
