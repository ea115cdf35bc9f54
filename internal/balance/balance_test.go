package balance

import (
	"math"
	"testing"
)

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 0.5); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := NewTracker(2, 1.5); err == nil {
		t.Fatal("want error for alpha > 1")
	}
	tr, err := NewTracker(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.K() != 3 {
		t.Fatal("K")
	}
}

func TestUpdateLengthCheck(t *testing.T) {
	tr, _ := NewTracker(2, 0.5)
	if err := tr.Update([]float64{1}); err == nil {
		t.Fatal("want error for wrong length")
	}
}

func TestSchemeEvenWithoutObservations(t *testing.T) {
	tr, _ := NewTracker(4, 0.5)
	s, err := tr.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Ratios() {
		if r != 0.25 {
			t.Fatalf("ratio %v, want even", r)
		}
	}
}

func TestSchemeProportionalToSpeed(t *testing.T) {
	tr, _ := NewTracker(2, 1) // alpha 1: latest observation wins
	// Device 0 takes 1 ms/position, device 1 takes 3 ms/position →
	// device 0 should get 3/4 of the work.
	if err := tr.Update([]float64{0.001, 0.003}); err != nil {
		t.Fatal(err)
	}
	s, err := tr.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	r := s.Ratios()
	if math.Abs(r[0]-0.75) > 1e-9 || math.Abs(r[1]-0.25) > 1e-9 {
		t.Fatalf("ratios %v, want [0.75 0.25]", r)
	}
}

func TestUpdateEWMA(t *testing.T) {
	tr, _ := NewTracker(1, 0.5)
	_ = tr.Update([]float64{2})
	_ = tr.Update([]float64{4})
	// 0.5·4 + 0.5·2 = 3
	if got := tr.PerPosition()[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("EWMA = %v, want 3", got)
	}
}

func TestUpdateSkipsNonObservations(t *testing.T) {
	tr, _ := NewTracker(2, 0.5)
	_ = tr.Update([]float64{2, 0})
	_ = tr.Update([]float64{2, math.NaN()})
	_ = tr.Update([]float64{2, math.Inf(1)})
	_ = tr.Update([]float64{2, -1})
	pp := tr.PerPosition()
	if pp[1] != 0 {
		t.Fatalf("non-observations should not update: %v", pp)
	}
	// Unknown device gets the mean observed seconds-per-position → even
	// split with one observed peer.
	s, err := tr.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	r := s.Ratios()
	if math.Abs(r[0]-0.5) > 1e-9 {
		t.Fatalf("unknown device ratio %v", r)
	}
}

func TestSchemeColdStartImputesMeanPerPosition(t *testing.T) {
	// Regression: an unobserved rank must be treated as the mean observed
	// seconds-per-position, not the mean observed *speed*. With devices at
	// 1 ms and 3 ms per position the mean perPos is 2 ms → speeds
	// [1000, 333.3, 500] → ratios ∝ [6, 2, 3]. Mean-speed imputation would
	// hand the unobserved rank 666.7 (ratios ∝ [3, 1, 2]), over-slicing it
	// by a third before it has done any work.
	tr, _ := NewTracker(3, 1)
	if err := tr.Update([]float64{0.001, 0.003, 0}); err != nil {
		t.Fatal(err)
	}
	s, err := tr.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	r := s.Ratios()
	want := []float64{6.0 / 11, 2.0 / 11, 3.0 / 11}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-9 {
			t.Fatalf("ratios %v, want %v", r, want)
		}
	}
}

func TestTrackerDeterminism(t *testing.T) {
	// Two trackers fed identical observation streams must derive
	// identical schemes — the property the distributed protocol relies
	// on (every worker runs its own tracker).
	a, _ := NewTracker(3, 0.5)
	b, _ := NewTracker(3, 0.5)
	streams := [][]float64{
		{0.002, 0.001, 0.004},
		{0.0021, 0.0012, 0.0038},
		{0, 0.0011, 0.0040},
	}
	for _, obs := range streams {
		_ = a.Update(obs)
		_ = b.Update(obs)
	}
	sa, err := a.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := sa.Ratios(), sb.Ratios()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("trackers diverged: %v vs %v", ra, rb)
		}
	}
}
