// Autoregressive generation at the edge: a GPT-2-shaped causal decoder
// produces tokens one by one with the distributed KV cache — one Voltage
// prefill over the prompt, then each step ships a token id out and one hidden
// row back. Causal masking composes with every attention computation order,
// so the adaptive re-ordering of Theorem 2 applies to decoders unchanged.
//
// Run with:
//
//	go run ./examples/generation
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
	layers := flag.Int("layers", 2, "GPT-2 stack depth (0 = full 12 layers)")
	k := flag.Int("k", 3, "number of edge devices")
	steps := flag.Int("steps", 6, "tokens to generate")
	flag.Parse()
	if err := run(*layers, *k, *steps); err != nil {
		log.Fatal(err)
	}
}

func run(layers, k, steps int) error {
	cfg := voltage.GPT2()
	if layers > 0 {
		cfg = cfg.Scaled(layers)
	}

	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return err
	}
	prompt := tok.Encode("the edge of the network is where inference happens")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	fmt.Printf("GPT-2 (%d layers) generating %d tokens over %d devices\n\n", cfg.Layers, steps, k)

	// The same system over K devices and over one — the single-device
	// reference.
	var tokens [][]int
	for _, devices := range []int{k, 1} {
		engine, err := voltage.NewEngine(cfg, devices, voltage.ClusterOptions{
			Profile: voltage.EdgeDefaultProfile,
		})
		if err != nil {
			return err
		}
		gen, err := engine.GenerateCached(ctx, prompt, steps)
		engine.Close()
		if err != nil {
			return err
		}
		fmt.Printf("K=%d: prefill %v + decode %v  tokens %v\n", devices,
			gen.PrefillLatency.Round(time.Millisecond), gen.DecodeLatency.Round(time.Millisecond),
			gen.Tokens[len(prompt):])
		tokens = append(tokens, gen.Tokens)
	}
	for i := range tokens[0] {
		if tokens[0][i] != tokens[1][i] {
			return fmt.Errorf("decoding diverged at position %d", i)
		}
	}
	fmt.Println("\nBoth decodings are identical: distribution never changes model outputs.")
	return nil
}
