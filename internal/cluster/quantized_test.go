package cluster

import (
	"context"
	"testing"

	"voltage/internal/model"
	"voltage/internal/netem"
)

func TestQuantizedCommOutputClose(t *testing.T) {
	// Quantized All-Gathers are lossy but bounded: final hidden states
	// must stay close to the exact run and the prediction must match.
	exact := newTiny(t, 3, Options{})
	quant := newTiny(t, 3, Options{QuantizedComm: true})
	x := embedTiny(t, exact, 16)
	ctx := context.Background()
	re, err := exact.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := quant.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rq.Output.MaxAbsDiff(re.Output)
	if err != nil {
		t.Fatal(err)
	}
	// Layer-normed activations are O(1); int8 per-layer error stays well
	// below 0.5 after two layers.
	if d > 0.5 {
		t.Fatalf("quantized output deviates by %v", d)
	}
	pe, err := exact.Model(0).Classifier.Predict(re.Output)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := quant.Model(0).Classifier.Predict(rq.Output)
	if err != nil {
		t.Fatal(err)
	}
	if pe != pq {
		t.Fatalf("quantized comm flipped the prediction: %d vs %d", pe, pq)
	}
}

func TestQuantizedCommReducesTraffic(t *testing.T) {
	exact := newTiny(t, 4, Options{})
	quant := newTiny(t, 4, Options{QuantizedComm: true})
	x := embedTiny(t, exact, 32)
	ctx := context.Background()
	re, err := exact.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := quant.Infer(ctx, StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(re.TotalBytesSent()) / float64(rq.TotalBytesSent())
	// All-Gather traffic shrinks ≈4×; the final float32 hand-off to the
	// terminal dilutes the aggregate somewhat.
	if ratio < 2 {
		t.Fatalf("quantized comm ratio %.2f, want ≥2 (≈4 on gathers)", ratio)
	}
	t.Logf("traffic: exact=%dB quantized=%dB (%.1fx reduction)", re.TotalBytesSent(), rq.TotalBytesSent(), ratio)
}

func TestQuantizedCommFasterAtLowBandwidth(t *testing.T) {
	if raceEnabled {
		t.Skip("bandwidth-vs-cpu timing comparison unreliable under -race")
	}
	// At edge bandwidths the 4× smaller gathers translate into latency.
	profile := netem.Profile{BandwidthMbps: 10}
	cfg := model.Tiny().Scaled(4)
	run := func(quantized bool) float64 {
		c, err := NewMem(cfg, 3, Options{Profile: profile, QuantizedComm: quantized})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		x := embedTiny(t, c, 48)
		res, err := c.Infer(context.Background(), StrategyVoltage, x)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Seconds()
	}
	exact := run(false)
	quant := run(true)
	if quant >= exact {
		t.Fatalf("quantized comm (%.4fs) not faster than exact (%.4fs) at 10 Mbps", quant, exact)
	}
	t.Logf("10 Mbps latency: exact=%.4fs quantized=%.4fs", exact, quant)
}
