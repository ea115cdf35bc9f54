package voltage_test

import (
	"context"
	"testing"

	"voltage"
)

func TestFacadeEndToEnd(t *testing.T) {
	engine, err := voltage.NewEngine(voltage.Tiny(), 3, voltage.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ctx := context.Background()
	ids := []int{1, 2, 3, 4, 5}
	pv, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
	if err != nil {
		t.Fatal(err)
	}
	single, err := voltage.NewEngine(voltage.Tiny(), 1, voltage.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ps, err := single.ClassifyTokens(ctx, voltage.StrategyVoltage, ids)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Class != ps.Class {
		t.Fatalf("distributed class %d != single %d", pv.Class, ps.Class)
	}
}

func TestFacadePresets(t *testing.T) {
	for _, name := range []string{"bert", "gpt2", "vit"} {
		cfg, err := voltage.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := voltage.Preset("bogus"); err == nil {
		t.Fatal("want error")
	}
}

func TestFacadeSchemes(t *testing.T) {
	s, err := voltage.EvenScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 4 {
		t.Fatal("even scheme size")
	}
	w, err := voltage.WeightedScheme([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Ratios()[1] != 2.0/3.0 {
		t.Fatal("weighted scheme ratios")
	}
}

func TestFacadeAttentionOrderSelection(t *testing.T) {
	// P = N: naive; tiny partition of long input: reordered.
	full := voltage.SelectAttentionOrder(200, 200, 1024, 64)
	small := voltage.SelectAttentionOrder(1000, 1, 1024, 64)
	if full == small {
		t.Fatalf("order selection insensitive to partition size: %v", full)
	}
}

func TestFacadeImageAndWorkers(t *testing.T) {
	im := voltage.RandomImage(1, 3, 16)
	if im.Channels != 3 || im.Width != 16 {
		t.Fatal("RandomImage shape")
	}
	prev := voltage.SetComputeWorkers(1)
	voltage.SetComputeWorkers(prev)
}

func TestFacadeCalibrate(t *testing.T) {
	cal := voltage.Calibrate(4)
	if cal.Zero() {
		t.Fatal("calibration came back zero")
	}
	if cal.DeviceFlops <= 0 || cal.BwScale <= 0 {
		t.Fatalf("calibration %+v", cal)
	}
	p := cal.Apply(voltage.NetworkProfile{BandwidthMbps: 500})
	if p.BandwidthMbps <= 0 || p.BandwidthMbps > 500 {
		t.Fatalf("applied bandwidth %v", p.BandwidthMbps)
	}
}

func TestFacadeEngineWithCalibration(t *testing.T) {
	cal := voltage.Calibration{DeviceFlops: 1e9, BwScale: 0.1}
	engine, err := voltage.NewEngine(voltage.Tiny(), 2, voltage.ClusterOptions{
		Profile:     cal.Apply(voltage.EdgeDefaultProfile),
		DeviceFlops: cal.DeviceFlops,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if _, err := engine.ClassifyTokens(context.Background(), voltage.StrategyVoltage, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}
