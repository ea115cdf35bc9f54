package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum number of result rows per goroutine; below
// this the goroutine fan-out overhead dominates.
const parallelThreshold = 16

// MatMul returns a × b. It panics on shape mismatch only via the error; use
// MustMatMul in contexts where shapes are known correct.
//
// The implementation is an i-k-j loop order (streaming over b's rows, four
// at a time) which is cache-friendly for row-major storage, optionally fanned
// out over rows when parallel workers are configured via SetWorkers.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: matmul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matMulInto(out, a, b, workerCount())
	return out, nil
}

// MustMatMul is MatMul for statically known-compatible shapes; it panics on
// mismatch. Used internally where shapes are guaranteed by construction.
func MustMatMul(a, b *Matrix) *Matrix {
	out, err := MatMul(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// MatMulSerial multiplies using exactly one goroutine regardless of the
// configured worker count. Device emulation uses it so that each simulated
// edge device has single-CPU compute as in the paper's testbed.
func MatMulSerial(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: matmul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matMulInto(out, a, b, 1)
	return out, nil
}

// workers is the goroutine fan-out of MatMul, read on every call.
var workers atomic.Int32

func init() { workers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the goroutine fan-out used by MatMul. n < 1 resets to
// GOMAXPROCS. It returns the previous value.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workers.Swap(int32(n)))
}

func workerCount() int { return int(workers.Load()) }

func matMulInto(out, a, b *Matrix, nworkers int) {
	rows := a.rows
	if nworkers <= 1 || rows < 2*parallelThreshold {
		matMulRows(out, a, b, 0, rows)
		return
	}
	chunk := (rows + nworkers - 1) / nworkers
	if chunk < parallelThreshold {
		chunk = parallelThreshold
	}
	var wg sync.WaitGroup
	for start := 0; start < rows; start += chunk {
		end := min(start+chunk, rows)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			matMulRows(out, a, b, s, e)
		}(start, end)
	}
	wg.Wait()
}

// matMulRows computes rows [rowStart,rowEnd) of out = a×b in the ikj loop
// order, four columns of a (four rows of b) per sweep of out's row: each
// out[i][j] is loaded once, gets a[i][k]·b[k][j] added for k..k+3 in
// ascending order with one rounding per term, and is stored once, so it
// sees the same float32 operations in the same order as one sweep per
// column. A group whose four a-values are all zero (a causal mask's zero
// tail) is skipped; a zero inside a group adds an exact zero to a sum that
// starts at +0, which changes no bit while b is finite.
func matMulRows(out, a, b *Matrix, rowStart, rowEnd int) {
	n, kk := b.cols, a.cols
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*kk : (i+1)*kk]
		oi := out.data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= kk; k += 4 {
			x0, x1, x2, x3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
				continue
			}
			b0 := b.data[k*n : (k+1)*n]
			b1 := b.data[(k+1)*n : (k+2)*n]
			b2 := b.data[(k+2)*n : (k+3)*n]
			b3 := b.data[(k+3)*n : (k+4)*n]
			for j := range oi {
				s := oi[j]
				s += x0 * b0[j]
				s += x1 * b1[j]
				s += x2 * b2[j]
				s += x3 * b3[j]
				oi[j] = s
			}
		}
		for ; k < kk; k++ {
			x := ai[k]
			if x == 0 {
				continue
			}
			bk := b.data[k*n : (k+1)*n]
			for j := range oi {
				oi[j] += x * bk[j]
			}
		}
	}
}

// MatMulT returns a × bᵀ without materializing the transpose. This is the
// natural shape for attention scores Q·Kᵀ.
func MatMulT(a, bT *Matrix) (*Matrix, error) {
	if a.cols != bT.cols {
		return nil, fmt.Errorf("%w: matmulT %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, bT.rows, bT.cols)
	}
	out := New(a.rows, bT.rows)
	rows := a.rows
	nw := workerCount()
	if nw <= 1 || rows < 2*parallelThreshold {
		matMulTRows(out, a, bT, 0, rows)
		return out, nil
	}
	chunk := (rows + nw - 1) / nw
	if chunk < parallelThreshold {
		chunk = parallelThreshold
	}
	var wg sync.WaitGroup
	for start := 0; start < rows; start += chunk {
		end := min(start+chunk, rows)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			matMulTRows(out, a, bT, s, e)
		}(start, end)
	}
	wg.Wait()
	return out, nil
}

// matMulTRows computes rows [rowStart,rowEnd) of out = a×bᵀ two outputs per
// pass over a's row: out[i][j] and out[i][j+1] each keep dot's four lanes
// and its final s0+s1+s2+s3 order, so they are bit-identical to dot's, while
// every load of a[i][k] serves both.
func matMulTRows(out, a, bT *Matrix, rowStart, rowEnd int) {
	kk, n := a.cols, bT.rows
	for i := rowStart; i < rowEnd; i++ {
		ai := a.data[i*kk : (i+1)*kk]
		oi := out.data[i*n : (i+1)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			p := bT.data[j*kk : (j+1)*kk]
			q := bT.data[(j+1)*kk : (j+2)*kk]
			var p0, p1, p2, p3, q0, q1, q2, q3 float32
			k := 0
			for ; k+4 <= kk; k += 4 {
				a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
				p0 += a0 * p[k]
				p1 += a1 * p[k+1]
				p2 += a2 * p[k+2]
				p3 += a3 * p[k+3]
				q0 += a0 * q[k]
				q1 += a1 * q[k+1]
				q2 += a2 * q[k+2]
				q3 += a3 * q[k+3]
			}
			s, t := p0+p1+p2+p3, q0+q1+q2+q3
			for ; k < kk; k++ {
				s += ai[k] * p[k]
				t += ai[k] * q[k]
			}
			oi[j], oi[j+1] = s, t
		}
		if j < n {
			oi[j] = dot(ai, bT.data[j*kk:(j+1)*kk])
		}
	}
}

// dot computes the inner product of equally sized slices with 4-way
// unrolling.
func dot(a, b []float32) float32 {
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
