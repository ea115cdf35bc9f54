package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference ijk implementation used to validate the
// optimized kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a, _ := NewFromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b, _ := NewFromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromData(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := MatMulSerial(New(2, 3), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := MatMulT(New(2, 3), New(2, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(50)
		k := 1 + rng.Intn(50)
		n := 1 + rng.Intn(50)
		a := rng.Normal(m, k, 1)
		b := rng.Normal(k, n, 1)
		got, err := MatMul(a, b)
		if err != nil {
			return false
		}
		return got.AlmostEqual(naiveMatMul(a, b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(42)
	a := rng.Normal(200, 64, 1)
	b := rng.Normal(64, 96, 1)
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	par, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := MatMulSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(ser) {
		t.Fatal("parallel and serial matmul disagree")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		a := rng.Normal(m, k, 1)
		bT := rng.Normal(n, k, 1)
		got, err := MatMulT(a, bT)
		if err != nil {
			return false
		}
		want, err := MatMul(a, bT.T())
		if err != nil {
			return false
		}
		return got.AlmostEqual(want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	// (AB)C == A(BC) numerically within float tolerance. This property is
	// the foundation of the paper's computation-order rewrites.
	rng := NewRNG(3)
	a := rng.Normal(8, 16, 0.5)
	b := rng.Normal(16, 12, 0.5)
	c := rng.Normal(12, 10, 0.5)
	left := MustMatMul(MustMatMul(a, b), c)
	right := MustMatMul(a, MustMatMul(b, c))
	if !left.AlmostEqual(right, 1e-3) {
		d, _ := left.MaxAbsDiff(right)
		t.Fatalf("associativity violated beyond tolerance: max diff %v", d)
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	if workerCount() != 3 {
		t.Fatalf("workerCount = %d, want 3", workerCount())
	}
	SetWorkers(0) // resets to GOMAXPROCS
	if workerCount() < 1 {
		t.Fatal("workerCount < 1 after reset")
	}
	SetWorkers(prev)
}

func TestMustMatMulPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMatMul did not panic on shape mismatch")
		}
	}()
	MustMatMul(New(2, 3), New(2, 3))
}

func BenchmarkMatMul128(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Normal(128, 128, 1)
	y := rng.Normal(128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulSerial128(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Normal(128, 128, 1)
	y := rng.Normal(128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulSerial(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// refMatMulRows is the one-column-per-sweep ikj kernel that matMulRows
// replaced: for each non-zero a[i][k] it adds a[i][k]·b[k][:] into out's
// row. matMulRows must match it bit for bit.
func refMatMulRows(out, a, b *Matrix, rowStart, rowEnd int) {
	n := b.cols
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*n : (i+1)*n]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			refAxpy(oi, b.data[k*n:(k+1)*n], av)
		}
	}
}

func refAxpy(dst, src []float32, alpha float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// refMatMulTRows is the one-output-per-pass a×bᵀ kernel that matMulTRows
// replaced. matMulTRows must match it bit for bit.
func refMatMulTRows(out, a, bT *Matrix, rowStart, rowEnd int) {
	k := a.cols
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*bT.rows : (i+1)*bT.rows]
		for j := 0; j < bT.rows; j++ {
			oi[j] = refDot(ai, bT.data[j*k:(j+1)*k])
		}
	}
}

func refDot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// sameBits reports the first element where got and want differ in their
// float32 bit patterns (so −0 ≠ +0 and every rounding counts).
func sameBits(got, want *Matrix) error {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) {
			return fmt.Errorf("element (%d,%d) = %v (%#08x), want %v (%#08x)",
				i/want.cols, i%want.cols, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return nil
}

// matMulShapes are the bench model's a×b products (M×K×N): the LM head of
// one sequence, a fused decode step of three sequences (QKV, the attention
// output, FFN up and down) and a 64-row prefill.
var matMulShapes = [][3]int{
	{1, 128, 1000},
	{3, 128, 32}, {3, 128, 128}, {3, 128, 512}, {3, 512, 128},
	{64, 128, 128}, {64, 128, 512}, {64, 512, 128},
}

// matMulTShapes are the bench model's a×bᵀ products (M×K×N): one decode
// row's scores against a 64- and a 256-position cache, prefill scores at
// head width 32, and the reordered association's q·WKᵀ and (q·WKᵀ)·xᵀ.
var matMulTShapes = [][3]int{
	{1, 32, 64}, {1, 32, 256},
	{64, 32, 64}, {64, 32, 192},
	{32, 32, 128}, {32, 128, 96},
}

// zeroed returns a copy of a with exact zeros, negative zeros and whole
// four-column zero groups injected, the inputs on which the kernels' zero
// skips decide what is added.
func zeroed(a *Matrix, rng *RNG) *Matrix {
	z := a.Clone()
	negZero := float32(math.Copysign(0, -1))
	for i := range z.data {
		switch rng.Intn(6) {
		case 0:
			z.data[i] = 0
		case 1:
			z.data[i] = negZero
		}
	}
	for i := 0; i < z.rows; i++ {
		row := z.Row(i)
		for g := 0; g+4 <= len(row); g += 4 {
			if rng.Intn(3) == 0 {
				row[g], row[g+1], row[g+2], row[g+3] = 0, negZero, 0, negZero
			}
		}
	}
	return z
}

// causalProbs is a causal softmax over random scores: row i is zero past
// column i, so its product with V has an exact-zero tail in every row.
func causalProbs(n int, rng *RNG) *Matrix {
	s := rng.Normal(n, n, 2)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for j := i + 1; j < n; j++ {
			row[j] = float32(math.Inf(-1))
		}
	}
	SoftmaxRowsInPlace(s)
	return s
}

// TestMatMulKernelsBitIdenticalToReference pins the blocked kernels to the
// ones they replaced: every output element must get the same float32
// operations in the same order, so results match bit for bit, serially and
// fanned out over rows.
func TestMatMulKernelsBitIdenticalToReference(t *testing.T) {
	rng := NewRNG(7)
	type pair struct {
		name string
		a, b *Matrix
	}
	var mm, mmt []pair
	for _, s := range matMulShapes {
		mm = append(mm, pair{fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), rng.Normal(s[0], s[1], 1), rng.Normal(s[1], s[2], 0.05)})
	}
	for _, s := range matMulTShapes {
		mmt = append(mmt, pair{fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), rng.Normal(s[0], s[1], 1), rng.Normal(s[2], s[1], 1)})
	}
	// Tails: K mod 4 ≠ 0, odd N, zero rows and one row; 40 rows so the
	// fan-out splits them.
	for _, m := range []int{0, 1, 40} {
		for _, k := range []int{1, 2, 3, 5, 7, 130} {
			for _, n := range []int{1, 3, 33} {
				name := fmt.Sprintf("tail-%dx%dx%d", m, k, n)
				mm = append(mm, pair{name, rng.Normal(m, k, 1), rng.Normal(k, n, 1)})
				mmt = append(mmt, pair{name, rng.Normal(m, k, 1), rng.Normal(n, k, 1)})
			}
		}
	}
	// Exact zeros, −0 and whole zero groups in a.
	for _, s := range [][3]int{{3, 128, 128}, {64, 128, 512}, {37, 131, 33}} {
		name := fmt.Sprintf("zeros-%dx%dx%d", s[0], s[1], s[2])
		mm = append(mm, pair{name, zeroed(rng.Normal(s[0], s[1], 1), rng), rng.Normal(s[1], s[2], 1)})
		mmt = append(mmt, pair{name, zeroed(rng.Normal(s[0], s[1], 1), rng), rng.Normal(s[2], s[1], 1)})
	}
	// A causal softmax times V, the product whose zero tail the skip is for.
	for _, n := range []int{1, 7, 64, 97} {
		mm = append(mm, pair{fmt.Sprintf("causal-%d", n), causalProbs(n, rng), rng.Normal(n, 32, 1)})
	}

	for _, nw := range []int{1, 8} {
		prev := SetWorkers(nw)
		for _, p := range mm {
			want := New(p.a.rows, p.b.cols)
			refMatMulRows(want, p.a, p.b, 0, p.a.rows)
			if err := sameBits(MustMatMul(p.a, p.b), want); err != nil {
				t.Errorf("MatMul %s workers=%d: %v", p.name, nw, err)
			}
			serial, err := MatMulSerial(p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(serial, want); err != nil {
				t.Errorf("MatMulSerial %s: %v", p.name, err)
			}
		}
		for _, p := range mmt {
			want := New(p.a.rows, p.b.rows)
			refMatMulTRows(want, p.a, p.b, 0, p.a.rows)
			got, err := MatMulT(p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, want); err != nil {
				t.Errorf("MatMulT %s workers=%d: %v", p.name, nw, err)
			}
		}
		SetWorkers(prev)
	}
}

// benchSink keeps the benchmarked products live so the calls are not
// optimised away.
var benchSink *Matrix

// BenchmarkMatMulShapes times MatMulSerial at the bench model's a×b shapes
// and reports the kernel's rate in GMAC/s.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, s := range matMulShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			rng := NewRNG(1)
			x, w := rng.Normal(s[0], s[1], 1), rng.Normal(s[1], s[2], 0.05)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = MatMulSerial(x, w)
			}
			b.ReportMetric(float64(s[0]*s[1]*s[2])*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
		})
	}
}

// BenchmarkMatMulTShapes times MatMulT on one worker at the bench model's
// a×bᵀ shapes and reports the kernel's rate in GMAC/s.
func BenchmarkMatMulTShapes(b *testing.B) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, s := range matMulTShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			rng := NewRNG(1)
			x, y := rng.Normal(s[0], s[1], 1), rng.Normal(s[2], s[1], 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = MatMulT(x, y)
			}
			b.ReportMetric(float64(s[0]*s[1]*s[2])*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
		})
	}
}
