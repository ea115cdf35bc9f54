package core

import (
	"context"
	"testing"

	"voltage/internal/cluster"
	"voltage/internal/model"
	"voltage/internal/tensor"
)

func newTinyEngine(t testing.TB, cfg model.Config, k int) *Engine {
	t.Helper()
	e, err := New(cfg, k, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestNewValidates(t *testing.T) {
	bad := model.Tiny()
	bad.F = 33
	if _, err := New(bad, 2, cluster.Options{}); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestClassifyTokensBadInput(t *testing.T) {
	e := newTinyEngine(t, model.Tiny(), 2)
	if _, err := e.ClassifyTokens(context.Background(), cluster.StrategyVoltage, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := e.ClassifyTokens(context.Background(), cluster.StrategyVoltage, []int{99999}); err == nil {
		t.Fatal("want error for OOV token")
	}
}

func TestClassifyImage(t *testing.T) {
	e := newTinyEngine(t, model.TinyVision(), 2)
	im := model.RandomImage(tensor.NewRNG(3), 3, 16)
	ctx := context.Background()
	pv, err := e.ClassifyImage(ctx, cluster.StrategyVoltage, im)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := newTinyEngine(t, model.TinyVision(), 1).ClassifyImage(ctx, cluster.StrategyVoltage, im)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Class != ps.Class {
		t.Fatalf("distributed class %d != single %d", pv.Class, ps.Class)
	}
	// Wrong modality.
	if _, err := e.ClassifyTokens(ctx, cluster.StrategyVoltage, []int{1}); err == nil {
		t.Fatal("want error for tokens into vision engine")
	}
	et := newTinyEngine(t, model.Tiny(), 2)
	if _, err := et.ClassifyImage(ctx, cluster.StrategyVoltage, im); err == nil {
		t.Fatal("want error for image into token engine")
	}
}

func TestGenerateValidation(t *testing.T) {
	e := newTinyEngine(t, model.Tiny(), 2) // encoder, not decoder
	ctx := context.Background()
	if _, err := e.GenerateCached(ctx, []int{1}, 2); err == nil {
		t.Fatal("want error for generation on encoder")
	}
	d := newTinyEngine(t, model.TinyDecoder(), 2)
	if _, err := d.GenerateCached(ctx, nil, 2); err == nil {
		t.Fatal("want error for empty prompt")
	}
	if _, err := d.GenerateCached(ctx, []int{1}, -1); err == nil {
		t.Fatal("want error for negative steps")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := newTinyEngine(t, model.Tiny(), 2)
	if e.Cluster() == nil {
		t.Fatal("Cluster nil")
	}
	if e.Config().Name != "tiny" {
		t.Fatalf("Config = %v", e.Config().Name)
	}
}
