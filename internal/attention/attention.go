// Package attention implements the self-attention computation orders of
// Section IV of the Voltage paper and the adaptive order selection of
// Algorithm 1.
//
// All orders compute the same mathematical object — the output partition
//
//	Ap(x) = softmax(x_p·WQ·WKᵀ·xᵀ / √FH) · x · WV
//
// for a slice x_p of the input positions — but with different matrix
// association orders and therefore different FLOP counts. The package
// executes any order numerically and exposes the adaptive selection that
// picks the cheapest one for the given input and partition sizes.
package attention

import (
	"fmt"

	"voltage/internal/flopcount"
	"voltage/internal/tensor"
)

// HeadWeights holds the projection weights of one attention head.
// WQ, WK, WV are F×FH matrices.
type HeadWeights struct {
	WQ, WK, WV *tensor.Matrix
	// FusedQK caches WQ·WKᵀ (F×F) for the fused orders. It is computed
	// lazily by ensureFused; nil until first needed.
	fusedQK *tensor.Matrix
}

// NewHeadWeights validates and wraps one head's projections.
func NewHeadWeights(wq, wk, wv *tensor.Matrix) (*HeadWeights, error) {
	if wq.Rows() != wk.Rows() || wq.Rows() != wv.Rows() ||
		wq.Cols() != wk.Cols() || wq.Cols() != wv.Cols() {
		return nil, fmt.Errorf("%w: head weights WQ %dx%d WK %dx%d WV %dx%d",
			tensor.ErrShape, wq.Rows(), wq.Cols(), wk.Rows(), wk.Cols(), wv.Rows(), wv.Cols())
	}
	return &HeadWeights{WQ: wq, WK: wk, WV: wv}, nil
}

// F returns the input feature dimensionality.
func (h *HeadWeights) F() int { return h.WQ.Rows() }

// FH returns the per-head feature dimensionality.
func (h *HeadWeights) FH() int { return h.WQ.Cols() }

func (h *HeadWeights) ensureFused() *tensor.Matrix {
	if h.fusedQK == nil {
		fused, err := tensor.MatMulT(h.WQ, h.WK) // WQ·WKᵀ, F×F
		if err != nil {
			panic(err) // shapes validated at construction
		}
		h.fusedQK = fused
	}
	return h.fusedQK
}

// Compute returns Ap(x) for the given order. x is the full N×F input, xp is
// the P×F partition (rows pFrom..pFrom+P of x); order determines the
// association.
//
// xp must be a row slice of x for the result to be meaningful; the function
// does not verify the aliasing, only the shapes.
func Compute(h *HeadWeights, x, xp *tensor.Matrix, order flopcount.Order) (*tensor.Matrix, error) {
	return ComputeWithOptions(h, x, xp, Options{Order: order})
}

// scoreMatrix computes the raw P×N score matrix x_p·WQ·WKᵀ·xᵀ under the
// order's association (before scaling and softmax).
func scoreMatrix(h *HeadWeights, x, xp *tensor.Matrix, order flopcount.Order) (*tensor.Matrix, error) {
	switch order {
	case flopcount.OrderNaive, flopcount.OrderQKtLateV:
		// (x_p WQ)(x WK)ᵀ — compute Q and K in advance.
		q, err := tensor.MatMul(xp, h.WQ)
		if err != nil {
			return nil, err
		}
		k, err := tensor.MatMul(x, h.WK)
		if err != nil {
			return nil, err
		}
		return tensor.MatMulT(q, k)
	case flopcount.OrderReordered, flopcount.OrderQWkEarlyV:
		// ((x_p WQ) WKᵀ) xᵀ — never materialize K.
		q, err := tensor.MatMul(xp, h.WQ)
		if err != nil {
			return nil, err
		}
		qwk, err := tensor.MatMulT(q, h.WK) // q·WKᵀ, P×F
		if err != nil {
			return nil, err
		}
		return tensor.MatMulT(qwk, x) // (q·WKᵀ)·xᵀ, P×N
	case flopcount.OrderFusedQKEarly, flopcount.OrderFusedQKLate:
		// (x_p (WQ WKᵀ)) xᵀ with the fused F×F weight.
		fused := h.ensureFused()
		xf, err := tensor.MatMul(xp, fused)
		if err != nil {
			return nil, err
		}
		return tensor.MatMulT(xf, x)
	case flopcount.OrderFusedQKRight:
		// x_p ((WQ WKᵀ) xᵀ)
		fused := h.ensureFused()
		fx, err := tensor.MatMulT(fused, x) // (WQWKᵀ)·xᵀ, F×N
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(xp, fx)
	case flopcount.OrderInsideOut:
		// x_p (WQ (WKᵀ xᵀ))
		kx, err := tensor.MatMul(h.WK.T(), x.T()) // FH×N
		if err != nil {
			return nil, err
		}
		wqkx, err := tensor.MatMul(h.WQ, kx) // F×N
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(xp, wqkx)
	default:
		return nil, fmt.Errorf("attention: unknown order %v", order)
	}
}

// valueProduct applies the softmaxed P×N score matrix s to x·WV under the
// order's value association (paper Eq. 6).
func valueProduct(h *HeadWeights, x, s *tensor.Matrix, order flopcount.Order) (*tensor.Matrix, error) {
	switch order {
	case flopcount.OrderNaive, flopcount.OrderQWkEarlyV,
		flopcount.OrderFusedQKEarly, flopcount.OrderFusedQKRight, flopcount.OrderInsideOut:
		// S·(x·WV) — compute V in advance.
		v, err := tensor.MatMul(x, h.WV)
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(s, v)
	case flopcount.OrderReordered, flopcount.OrderQKtLateV, flopcount.OrderFusedQKLate:
		// (S·x)·WV — leave WV until last.
		sx, err := tensor.MatMul(s, x)
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(sx, h.WV)
	default:
		return nil, fmt.Errorf("attention: unknown order %v", order)
	}
}

// ComputeAdaptive evaluates Ap(x) with the order Theorem 2 proves optimal
// for the given (N, P, F, FH), returning the output and the chosen order.
func ComputeAdaptive(h *HeadWeights, x, xp *tensor.Matrix) (*tensor.Matrix, flopcount.Order, error) {
	s := flopcount.Shape{N: x.Rows(), P: xp.Rows(), F: h.F(), FH: h.FH()}
	order := flopcount.SelectOrder(s)
	out, err := Compute(h, x, xp, order)
	return out, order, err
}

// MultiHead holds the weights of a complete multi-head self-attention
// block: H heads plus the output projection WO (H·FH × F) and its bias.
type MultiHead struct {
	Heads []*HeadWeights
	WO    *tensor.Matrix
	BO    []float32
}

// NewMultiHead validates the per-head shapes against the output projection.
func NewMultiHead(heads []*HeadWeights, wo *tensor.Matrix, bo []float32) (*MultiHead, error) {
	if len(heads) == 0 {
		return nil, fmt.Errorf("%w: no attention heads", tensor.ErrShape)
	}
	f, fh := heads[0].F(), heads[0].FH()
	for i, h := range heads {
		if h.F() != f || h.FH() != fh {
			return nil, fmt.Errorf("%w: head %d shape %dx%d vs %dx%d",
				tensor.ErrShape, i, h.F(), h.FH(), f, fh)
		}
	}
	if wo.Rows() != len(heads)*fh || wo.Cols() != f {
		return nil, fmt.Errorf("%w: WO %dx%d, want %dx%d",
			tensor.ErrShape, wo.Rows(), wo.Cols(), len(heads)*fh, f)
	}
	if len(bo) != f {
		return nil, fmt.Errorf("%w: BO length %d, want %d", tensor.ErrShape, len(bo), f)
	}
	return &MultiHead{Heads: heads, WO: wo, BO: bo}, nil
}

// H returns the number of heads.
func (m *MultiHead) H() int { return len(m.Heads) }

// F returns the model feature dimensionality.
func (m *MultiHead) F() int { return m.Heads[0].F() }

// FH returns the per-head feature dimensionality.
func (m *MultiHead) FH() int { return m.Heads[0].FH() }

// Forward computes MultiHead(x)_p = Concat(A¹p(x),…,A^Hp(x))·WO + BO for
// the partition xp, using the given order for every head. Pass x as both
// arguments with order OrderNaive for the classic full (single-device)
// multi-head attention.
func (m *MultiHead) Forward(x, xp *tensor.Matrix, order flopcount.Order) (*tensor.Matrix, error) {
	return m.ForwardWithOptions(x, xp, Options{Order: order})
}

// project concatenates the per-head outputs and applies the output
// projection: Concat(outs)·WO + BO.
func (m *MultiHead) project(outs []*tensor.Matrix) (*tensor.Matrix, error) {
	cat, err := tensor.ConcatCols(outs...)
	if err != nil {
		return nil, err
	}
	proj, err := tensor.MatMul(cat, m.WO)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddBiasInPlace(proj, m.BO); err != nil {
		return nil, err
	}
	return proj, nil
}

// ForwardAdaptive runs Forward with the Theorem 2-optimal order and reports
// which order was used. All heads share the same (N, P, F, FH) so a single
// selection applies to every head, exactly as in Algorithm 1.
func (m *MultiHead) ForwardAdaptive(x, xp *tensor.Matrix) (*tensor.Matrix, flopcount.Order, error) {
	s := flopcount.Shape{N: x.Rows(), P: xp.Rows(), F: m.F(), FH: m.FH()}
	order := flopcount.SelectOrder(s)
	out, err := m.Forward(x, xp, order)
	return out, order, err
}

// Cost returns the analytic Γ of a Forward call under the given order.
func (m *MultiHead) Cost(n, p int, order flopcount.Order) (int64, error) {
	s := flopcount.Shape{N: n, P: p, F: m.F(), FH: m.FH()}
	headCost, err := flopcount.Cost(s, order)
	if err != nil {
		return 0, err
	}
	proj := int64(p) * int64(m.H()*m.FH()) * int64(m.F())
	return int64(m.H())*headCost + proj, nil
}

// RandomMultiHead builds a deterministic, Xavier-initialized multi-head
// block for tests, benchmarks and synthetic experiments.
func RandomMultiHead(rng *tensor.RNG, h, f, fh int) (*MultiHead, error) {
	heads := make([]*HeadWeights, h)
	for i := range heads {
		hw, err := NewHeadWeights(
			rng.XavierNormal(f, fh), rng.XavierNormal(f, fh), rng.XavierNormal(f, fh))
		if err != nil {
			return nil, err
		}
		heads[i] = hw
	}
	return NewMultiHead(heads, rng.XavierNormal(h*fh, f), tensor.Zeros(f))
}
