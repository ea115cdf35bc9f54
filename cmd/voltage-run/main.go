// Command voltage-run serves one inference request on an emulated edge
// cluster and reports the latency and communication breakdown — the
// smallest end-to-end demonstration of the system.
//
// Usage:
//
//	voltage-run -model bert -k 4 -text "an example request"
//	voltage-run -model vit  -k 6
//	voltage-run -model gpt2 -k 3 -generate 8 -text "a prompt"
//	voltage-run -model bert -k 1 -words 200    # the single-device baseline
//
// Tensor and pipeline parallelism are measured by voltage-bench
// (-experiment fig4,pipeline -mode measured).
//
// By default the model runs at a 2-layer depth so full-width models finish
// quickly under the pure-Go kernels; -layers 0 restores the paper depth.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"voltage"
	"voltage/internal/tokenizer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "voltage-run:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("voltage-run", flag.ContinueOnError)
	modelName := fs.String("model", "bert", "model preset (bert | gpt2 | vit | tiny | ...)")
	k := fs.Int("k", 4, "number of worker devices")
	text := fs.String("text", "", "input text (token models)")
	words := fs.Int("words", 200, "synthetic word count when -text is empty")
	layers := fs.Int("layers", 2, "stack depth (0 = full paper depth)")
	bandwidth := fs.Float64("bandwidth", 500, "link bandwidth in Mbps (0 = unlimited)")
	generate := fs.Int("generate", 0, "decode this many tokens (decoder models)")
	seed := fs.Int64("seed", 1, "weight seed")
	timeout := fs.Duration("timeout", 10*time.Minute, "request time budget")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := voltage.Preset(*modelName)
	if err != nil {
		return err
	}
	if *layers > 0 {
		cfg = cfg.Scaled(*layers)
	}

	// Single-threaded math per emulated device, as in the paper's testbed.
	prev := voltage.SetComputeWorkers(1)
	defer voltage.SetComputeWorkers(prev)

	engine, err := voltage.NewEngine(cfg, *k, voltage.ClusterOptions{
		Profile: voltage.NetworkProfile{BandwidthMbps: *bandwidth, Latency: 200 * time.Microsecond},
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	defer engine.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Fprintf(w, "model=%s layers=%d K=%d bandwidth=%.0fMbps\n", cfg.Name, cfg.Layers, *k, *bandwidth)

	if cfg.Kind.String() == "vision" {
		im := voltage.RandomImage(99, cfg.Channels, cfg.ImageSize)
		pred, err := engine.ClassifyImage(ctx, voltage.StrategyVoltage, im)
		if err != nil {
			return err
		}
		report(w, pred)
		return nil
	}
	ids, err := encode(cfg, *text, *words)
	if err != nil {
		return err
	}
	if *generate > 0 {
		gen, err := engine.GenerateCached(ctx, ids, *generate)
		if err != nil {
			return err
		}
		var bytes int64
		for _, s := range gen.PerDevice[:*k] {
			bytes += s.BytesSent
		}
		fmt.Fprintf(w, "generated %d tokens in %v prefill + %v decode (%d worker bytes): %v\n",
			len(gen.Tokens)-len(ids), gen.PrefillLatency.Round(time.Millisecond),
			gen.DecodeLatency.Round(time.Millisecond), bytes, gen.Tokens[len(ids):])
		return nil
	}
	pred, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
	if err != nil {
		return err
	}
	report(w, pred)
	return nil
}

func encode(cfg voltage.Config, text string, words int) ([]int, error) {
	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return nil, err
	}
	if text != "" {
		return tok.Encode(text), nil
	}
	n := words
	if n+2 > cfg.MaxSeq {
		n = cfg.MaxSeq - 2
	}
	return tok.EncodeWords(n, 7), nil
}

func report(w io.Writer, pred *voltage.Prediction) {
	fmt.Fprintf(w, "class=%d latency=%v worker-bytes=%d\n",
		pred.Class, pred.Run.Latency.Round(time.Millisecond), pred.Run.TotalBytesSent())
}
