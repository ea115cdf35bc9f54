package harness

import (
	"context"
	"strings"
	"testing"

	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/netem"
)

func TestFig4PredictedShape(t *testing.T) {
	rows, err := Fig4Predicted(model.BERTLarge(), 6, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Voltage below single for K ≥ 2 and decreasing within each parity of K
	// (the emulated link's All-Gather costs an odd K more; see
	// costmodel.TestFig4ShapeVoltageScalesDown), TP above single for K ≥ 2.
	for i := 1; i < len(rows); i++ {
		if rows[i].VoltageSec >= rows[i].SingleSec || (i >= 2 && rows[i].VoltageSec >= rows[i-2].VoltageSec) {
			t.Fatalf("voltage not decreasing at K=%d", rows[i].K)
		}
		if rows[i].TPSec <= rows[i].SingleSec {
			t.Fatalf("TP below single at K=%d", rows[i].K)
		}
	}
	if _, err := Fig4Predicted(model.Config{}, 2, 500); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestFig4MeasuredTiny(t *testing.T) {
	rows, err := Fig4Measured(context.Background(), model.Tiny(), 3, netem.Unlimited, Calibration{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SingleSec <= 0 || r.VoltageSec <= 0 || r.TPSec <= 0 {
			t.Fatalf("non-positive latency in %+v", r)
		}
	}
}

func TestFig5PredictedShape(t *testing.T) {
	rows, err := Fig5Predicted(model.BERTLarge(), 6, DefaultBandwidths)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultBandwidths) {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TPSec >= rows[i-1].TPSec {
			t.Fatal("TP not improving with bandwidth")
		}
		if rows[i].VoltageSec >= rows[i].TPSec {
			t.Fatal("voltage not below TP")
		}
	}
	if _, err := Fig5Predicted(model.Config{}, 6, DefaultBandwidths); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestFig5MeasuredTiny(t *testing.T) {
	// Bandwidths far enough apart that serialization dominates timing
	// noise on the tiny model.
	rows, err := Fig5Measured(context.Background(), model.Tiny(), 2, []float64{2, 1000}, Calibration{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].VoltageSec <= 1.5*rows[1].VoltageSec {
		t.Fatalf("2 Mbps (%v) not clearly slower than 1000 Mbps (%v)", rows[0].VoltageSec, rows[1].VoltageSec)
	}
}

func TestFig6PredictedShape(t *testing.T) {
	rows := Fig6Predicted(DefaultFig6Settings, DefaultFig6Lengths, 10)
	if len(rows) != 3*3*9 {
		t.Fatalf("%d rows", len(rows))
	}
	// For every (setting, N): Voltage speed-up at K=10 must substantially
	// exceed the naive speed-up, and naive must plateau (bounded).
	byKey := map[[3]int][]Fig6Row{}
	for _, r := range rows {
		k := [3]int{r.H, r.FH, r.N}
		byKey[k] = append(byKey[k], r)
	}
	for key, series := range byKey {
		last := series[len(series)-1] // K = 10
		if last.VoltageSpeedup <= last.NaiveSpeedup {
			t.Fatalf("%v: voltage %v not above naive %v at K=10", key, last.VoltageSpeedup, last.NaiveSpeedup)
		}
		// Theorem 1: naive speed-up is bounded by Γ(full)/2NFFH ≈
		// (constant); check it stops growing: gain from K=5 to K=10 < 25%.
		var k5, k10 float64
		for _, r := range series {
			if r.K == 5 {
				k5 = r.NaiveSpeedup
			}
			if r.K == 10 {
				k10 = r.NaiveSpeedup
			}
		}
		if k10 > 1.25*k5 {
			t.Fatalf("%v: naive speedup still growing %v → %v", key, k5, k10)
		}
	}
	// The FH effect: the voltage/naive gap at K=10 grows with FH.
	gap := func(fh int) float64 {
		for _, r := range rows {
			if r.FH == fh && r.N == 300 && r.K == 10 {
				return r.VoltageSpeedup / r.NaiveSpeedup
			}
		}
		return 0
	}
	if !(gap(256) > gap(128) && gap(128) > gap(64)) {
		t.Fatalf("gap not increasing with FH: %v %v %v", gap(64), gap(128), gap(256))
	}
}

func TestFig6MeasuredSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Fig6Measured([]Fig6Setting{{H: 4, FH: 16}}, []int{64}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.VoltageSpeedup <= 0 || r.NaiveSpeedup <= 0 {
			t.Fatalf("non-positive speedup %+v", r)
		}
	}
}

func TestCommVolume(t *testing.T) {
	rows, err := CommVolume(context.Background(), model.Tiny(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 3 {
			t.Fatalf("K=%d ratio %v, want well above 3 (paper: 4×)", r.K, r.Ratio)
		}
		if r.TPFormula/r.VoltageFormula != 4 {
			t.Fatalf("formula ratio %v", r.TPFormula/r.VoltageFormula)
		}
	}
}

func TestVerifyTheorems(t *testing.T) {
	rep := VerifyTheorems(150)
	if rep.ShapesChecked == 0 {
		t.Fatal("no shapes checked")
	}
	if rep.PredicateErrors != 0 {
		t.Fatalf("%d predicate errors out of %d shapes", rep.PredicateErrors, rep.ShapesChecked)
	}
	if rep.ReorderedWins == 0 {
		t.Fatal("sweep never selected the reordered order — sweep too narrow")
	}
}

func TestTablesRender(t *testing.T) {
	f4, err := Fig4Predicted(model.GPT2(), 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	var md, csv strings.Builder
	tab := Fig4Table("Fig 4 (predicted)", f4)
	if err := tab.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "### Fig 4 (predicted)") || !strings.Contains(md.String(), "| gpt2 |") {
		t.Fatalf("markdown output malformed:\n%s", md.String())
	}
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "model,K,") {
		t.Fatalf("csv output malformed:\n%s", csv.String())
	}

	f5, err := Fig5Predicted(model.GPT2(), 3, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if tab := Fig5Table("f5", f5); len(tab.Rows) != 1 {
		t.Fatal("fig5 table rows")
	}
	f6 := Fig6Predicted([]Fig6Setting{{H: 2, FH: 8}}, []int{50}, 3)
	if tab := Fig6Table("f6", f6); len(tab.Rows) != len(f6) {
		t.Fatal("fig6 table rows")
	}
	comm := []CommRow{{K: 2, VoltageBytes: 10, TPBytes: 40, Ratio: 4, VoltageFormula: 10, TPFormula: 40}}
	if tab := CommTable("comm", comm); len(tab.Rows) != 1 {
		t.Fatal("comm table rows")
	}
	rep := TheoremReport{ShapesChecked: 5, ReorderedWins: 2}
	if tab := TheoremTable("thm", rep); len(tab.Rows) != 1 {
		t.Fatal("theorem table rows")
	}
}

func TestDefaultModels(t *testing.T) {
	ms := DefaultModels()
	if len(ms) != 3 {
		t.Fatalf("%d models", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig6PredictedOrdersMatchTheorem(t *testing.T) {
	rows := Fig6Predicted(DefaultFig6Settings, []int{200}, 10)
	for _, r := range rows {
		p := r.N / r.K
		if p < 1 {
			p = 1
		}
		want := flopcount.SelectOrder(flopcount.Shape{N: r.N, P: p, F: r.H * r.FH, FH: r.FH})
		if r.OrderUsed != want {
			t.Fatalf("row %+v used %v, theorem says %v", r, r.OrderUsed, want)
		}
	}
}
