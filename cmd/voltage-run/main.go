// Command voltage-run serves one inference request on an emulated edge
// cluster and reports the latency and communication breakdown — the
// smallest end-to-end demonstration of the system.
//
// Usage:
//
//	voltage-run -model bert -k 4 -strategy voltage -text "an example request"
//	voltage-run -model vit  -k 6 -strategy tensor-parallel
//	voltage-run -model gpt2 -k 3 -strategy voltage -generate 8 -text "a prompt"
//	voltage-run -model bert -k 4 -words 200 -compare
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
	strategyName := fs.String("strategy", "voltage", "voltage | tensor-parallel | single")
	text := fs.String("text", "", "input text (token models)")
	words := fs.Int("words", 200, "synthetic word count when -text is empty")
	layers := fs.Int("layers", 2, "stack depth (0 = full paper depth)")
	bandwidth := fs.Float64("bandwidth", 500, "link bandwidth in Mbps (0 = unlimited)")
	generate := fs.Int("generate", 0, "decode this many tokens (decoder models)")
	compare := fs.Bool("compare", false, "run all three strategies and compare")
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
	strategy, err := voltage.ParseStrategy(*strategyName)
	if err != nil {
		return err
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

	if *compare {
		for _, s := range []voltage.Strategy{voltage.StrategySingle, voltage.StrategyVoltage, voltage.StrategyTensorParallel} {
			if err := serveOne(ctx, w, engine, s, cfg, *text, *words, *generate); err != nil {
				return err
			}
		}
		return nil
	}
	return serveOne(ctx, w, engine, strategy, cfg, *text, *words, *generate)
}

func serveOne(ctx context.Context, w io.Writer, engine *voltage.Engine, strategy voltage.Strategy,
	cfg voltage.Config, text string, words, generate int) error {
	switch {
	case cfg.Kind.String() == "vision":
		im := voltage.RandomImage(99, cfg.Channels, cfg.ImageSize)
		pred, err := engine.ClassifyImage(ctx, strategy, im)
		if err != nil {
			return err
		}
		report(w, strategy, pred)
	case generate > 0:
		ids, err := encode(cfg, text, words)
		if err != nil {
			return err
		}
		gen, err := engine.Generate(ctx, strategy, ids, generate)
		if err != nil {
			return err
		}
		var total time.Duration
		var bytes int64
		for _, r := range gen.Runs {
			total += r.Latency
			bytes += r.TotalBytesSent()
		}
		fmt.Fprintf(w, "[%s] generated %d tokens in %v (%d worker bytes): %v\n",
			strategy, len(gen.Tokens)-len(ids), total.Round(time.Millisecond), bytes,
			gen.Tokens[len(ids):])
	default:
		ids, err := encode(cfg, text, words)
		if err != nil {
			return err
		}
		pred, err := engine.ClassifyTokens(ctx, strategy, ids)
		if err != nil {
			return err
		}
		report(w, strategy, pred)
	}
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

func report(w io.Writer, strategy voltage.Strategy, pred *voltage.Prediction) {
	fmt.Fprintf(w, "[%s] class=%d latency=%v worker-bytes=%d\n",
		strategy, pred.Class, pred.Run.Latency.Round(time.Millisecond), pred.Run.TotalBytesSent())
}
