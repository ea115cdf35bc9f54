package cluster

import (
	"context"
	"testing"

	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// heteroRates is a 3-device cluster where device 2 is 4× slower. The base
// rate is slow enough that pacing (the emulated device speed) dominates the
// tiny model's real math and scheduling noise.
var heteroRates = []float64{1e7, 1e7, 1e7 / 4}

func TestHeteroValidation(t *testing.T) {
	if _, err := NewMem(model.Tiny(), 2, Options{HeteroDeviceFlops: []float64{1e9}}); err == nil {
		t.Fatal("want error for rate/worker count mismatch")
	}
}

// weightedScheme is the paper's §V-B mechanism: a static ratio vector that
// gives each device rows in proportion to its speed.
func weightedScheme(t *testing.T, rates []float64) *partition.Scheme {
	t.Helper()
	scheme, err := partition.Weighted(rates)
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}

func TestWeightedSchemeBeatsEvenOnHeterogeneousCluster(t *testing.T) {
	// With one 4×-slower device, the even scheme is bottlenecked by the
	// straggler at every layer; slicing by speed shrinks its share and cuts
	// the end-to-end latency without changing the computed function.
	if raceEnabled {
		t.Skip("pacing-based timing comparison unreliable under -race")
	}
	cfg := model.Tiny().Scaled(8)
	run := func(scheme *partition.Scheme) (float64, *tensor.Matrix) {
		c, err := NewMem(cfg, 3, Options{HeteroDeviceFlops: heteroRates, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 48))
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Seconds(), res.Output
	}
	even, evenOut := run(nil)
	weighted, weightedOut := run(weightedScheme(t, heteroRates))
	// Identical up to the rounding of Theorem 2's two association orders,
	// which a slice's length selects between.
	if d, err := weightedOut.MaxAbsDiff(evenOut); err != nil || d > 1e-4 {
		t.Fatalf("weighted scheme changed the output by %v (err %v)", d, err)
	}
	if weighted >= even {
		t.Fatalf("weighted scheme (%.4fs) not faster than even scheme (%.4fs) on heterogeneous cluster",
			weighted, even)
	}
	t.Logf("heterogeneous K=3 (one 4x-slower device): even=%.4fs weighted=%.4fs (%.0f%% faster)",
		even, weighted, 100*(1-weighted/even))
}

func TestWeightedSchemeHomogeneousStaysCorrect(t *testing.T) {
	// A ratio vector that does not match the devices costs time, never
	// correctness.
	c, err := NewMem(model.Tiny().Scaled(4), 3, Options{Scheme: weightedScheme(t, heteroRates), DeviceFlops: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	x := embedTiny(t, c, 30)
	weighted, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Output.AlmostEqual(solo(t, c, x), 1e-2) {
		t.Fatal("homogeneous weighted output differs")
	}
}
