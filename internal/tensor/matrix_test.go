package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Size() != 12 {
		t.Fatalf("unexpected shape %dx%d size %d", m.Rows(), m.Cols(), m.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromData(t *testing.T) {
	m, err := NewFromData(2, 2, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("row-major layout broken: %v", m)
	}
	if _, err := NewFromData(2, 2, []float32{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 7)
	m.Set(4, 6, 3.5)
	if m.At(4, 6) != 3.5 {
		t.Fatalf("At after Set = %v", m.At(4, 6))
	}
	if m.Row(4)[6] != 3.5 {
		t.Fatalf("Row alias broken")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, _ := NewFromData(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowSlice(t *testing.T) {
	m, _ := NewFromData(4, 2, []float32{0, 1, 10, 11, 20, 21, 30, 31})
	s, err := m.RowSlice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromData(2, 2, []float32{10, 11, 20, 21})
	if !s.Equal(want) {
		t.Fatalf("RowSlice = %v, want %v", s, want)
	}
	// Deep copy: mutating the slice must not touch the source.
	s.Set(0, 0, -1)
	if m.At(1, 0) != 10 {
		t.Fatal("RowSlice aliases source")
	}
	if _, err := m.RowSlice(3, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape for inverted range, got %v", err)
	}
	if _, err := m.RowSlice(0, 5); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape for overflow, got %v", err)
	}
}

func TestSetRowSlice(t *testing.T) {
	m := New(4, 2)
	part, _ := NewFromData(2, 2, []float32{1, 2, 3, 4})
	if err := m.SetRowSlice(1, part); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 1 || m.At(2, 1) != 4 || m.At(0, 0) != 0 {
		t.Fatalf("SetRowSlice wrote wrong cells: %v", m)
	}
	bad := New(2, 3)
	if err := m.SetRowSlice(0, bad); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if err := m.SetRowSlice(3, part); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape on overflow, got %v", err)
	}
}

func TestRowSliceSetRowSliceRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	m := rng.Normal(9, 5, 1)
	rebuilt := New(9, 5)
	for _, r := range [][2]int{{0, 3}, {3, 7}, {7, 9}} {
		part, err := m.RowSlice(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.SetRowSlice(r[0], part); err != nil {
			t.Fatal(err)
		}
	}
	if !rebuilt.Equal(m) {
		t.Fatal("partition/reassembly is not the identity")
	}
}

func TestAppendRowGrowsInPlaceAmortised(t *testing.T) {
	m := New(0, 3)
	want := New(64, 3)
	grows := 0
	for i := 0; i < 64; i++ {
		row := []float32{float32(i), float32(2 * i), float32(3 * i)}
		copy(want.Row(i), row)
		before := cap(m.data)
		if err := m.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		if cap(m.data) != before {
			grows++
		}
	}
	if !m.Equal(want) {
		t.Fatalf("appended matrix %v differs from row-by-row reference", m)
	}
	// Geometric capacity: 64 appends reallocate a logarithmic number of
	// times, not once per row.
	if grows > 12 {
		t.Errorf("%d reallocations over 64 appends, want amortised growth", grows)
	}
	if err := m.AppendRow([]float32{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("short row: err = %v, want ErrShape", err)
	}
	if m.Rows() != 64 {
		t.Errorf("failed append changed rows to %d", m.Rows())
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T[%d][%d] mismatch", j, i)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		r := 1 + rng.Intn(40)
		c := 1 + rng.Intn(40)
		m := rng.Normal(r, c, 1)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	a, _ := NewFromData(1, 2, []float32{1, 1000})
	b, _ := NewFromData(1, 2, []float32{1.0000001, 1000.0001})
	if !a.AlmostEqual(b, 1e-5) {
		t.Fatal("AlmostEqual too strict")
	}
	c, _ := NewFromData(1, 2, []float32{2, 1000})
	if a.AlmostEqual(c, 1e-5) {
		t.Fatal("AlmostEqual too loose")
	}
	d := New(2, 1)
	if a.AlmostEqual(d, 1) {
		t.Fatal("AlmostEqual ignores shape")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, _ := NewFromData(1, 3, []float32{1, 2, 3})
	b, _ := NewFromData(1, 3, []float32{1, 4, 3})
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
	if _, err := a.MaxAbsDiff(New(3, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestStringFormats(t *testing.T) {
	small, _ := NewFromData(1, 2, []float32{1, 2})
	if got := small.String(); got != "Matrix(1x2)[1 2]" {
		t.Fatalf("small String = %q", got)
	}
	big := New(100, 100)
	if got := big.String(); got != "Matrix(100x100)" {
		t.Fatalf("big String = %q", got)
	}
}
