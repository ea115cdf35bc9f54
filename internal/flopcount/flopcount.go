// Package flopcount implements the computation-complexity accounting of
// Section IV of the Voltage paper.
//
// Following the paper, the cost Γ(·) of a matrix product of an m×k matrix by
// a k×n matrix is counted as m·k·n floating point operations, and
// element-wise steps (softmax, scaling) are counted as O(number of
// elements). The package provides:
//
//   - the cost of each candidate computation order for the partitioned
//     attention output Ap(x) (Eq. 3, Eq. 8 and the intermediate orders in
//     Eqs. 10–14 and Eq. 6),
//   - the closed forms of Theorems 1 and 3,
//   - the optimal-order predicate of Theorem 2, and
//   - a brute-force argmin over all orders used by tests to verify the
//     theorems.
package flopcount

import "fmt"

// Shape captures the variables of the paper's analysis for one attention
// head: input length N, partition length P, model feature size F and
// per-head feature size FH. The multi-head constraint is F = H·FH.
type Shape struct {
	N  int // full input sequence length
	P  int // partition (output slice) length, 1 ≤ P ≤ N
	F  int // model feature dimensionality
	FH int // attention-head feature dimensionality
}

// Validate reports whether the shape is internally consistent.
func (s Shape) Validate() error {
	switch {
	case s.N < 1:
		return fmt.Errorf("flopcount: N = %d < 1", s.N)
	case s.P < 1 || s.P > s.N:
		return fmt.Errorf("flopcount: P = %d outside [1, %d]", s.P, s.N)
	case s.F < 1 || s.FH < 1:
		return fmt.Errorf("flopcount: F = %d, FH = %d must be ≥ 1", s.F, s.FH)
	}
	return nil
}

// Heads returns H = F / FH (0 if not divisible).
func (s Shape) Heads() int {
	if s.FH == 0 || s.F%s.FH != 0 {
		return 0
	}
	return s.F / s.FH
}

// Order identifies one complete computation order for the attention output
// partition Ap(x) = softmax(x_p·WQ·WKᵀ·xᵀ/√FH)·x·WV.
//
// The first step (computing the score matrix argument x_p·WQ·WKᵀ·xᵀ) has
// five associations (paper Eqs. 10–14); the second step (applying S to
// x·WV) has two (paper Eq. 6). The paper's two surviving candidates are:
//
//   - Naive (Eq. 3):   S = (x_p·WQ)·(x·WK)ᵀ, then S·(x·WV)
//   - Reordered (Eq. 8): S = ((x_p·WQ)·WKᵀ)·xᵀ, then (S·x)·WV
type Order int

// Score-step association × value-step association. Names use Q=x_p·WQ,
// K=x·WK, and explicit parenthesization.
const (
	// OrderNaive is Eq. 3: compute Q, K, V in advance.
	// S = (x_p WQ)(x WK)ᵀ; out = S·(x WV).
	OrderNaive Order = iota + 1
	// OrderReordered is Eq. 8: never materialize K or V.
	// S = ((x_p WQ) WKᵀ)xᵀ; out = (S x)·WV.
	OrderReordered
	// OrderQKtLateV is Eq. 11's score step with the late-V value step:
	// S = (x_p WQ)(WKᵀ xᵀ); out = (S x)·WV.
	OrderQKtLateV
	// OrderQWkEarlyV is Eq. 10's score step with the early-V value step:
	// S = ((x_p WQ) WKᵀ)xᵀ; out = S·(x WV).
	OrderQWkEarlyV
	// OrderFusedQKEarly is Eq. 12: precompute WQ·WKᵀ (F×F), left to right,
	// with the early-V value step. The paper's "deceptive" optimization.
	OrderFusedQKEarly
	// OrderFusedQKLate is Eq. 12's score step with the late-V value step.
	OrderFusedQKLate
	// OrderFusedQKRight is Eq. 13: x_p·((WQ WKᵀ)·xᵀ) with early V.
	OrderFusedQKRight
	// OrderInsideOut is Eq. 14: x_p·(WQ·(WKᵀ xᵀ)) with early V.
	OrderInsideOut
)

// AllOrders lists every order the package can cost, in declaration order.
var AllOrders = []Order{
	OrderNaive, OrderReordered, OrderQKtLateV, OrderQWkEarlyV,
	OrderFusedQKEarly, OrderFusedQKLate, OrderFusedQKRight, OrderInsideOut,
}

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderNaive:
		return "naive(Eq3)"
	case OrderReordered:
		return "reordered(Eq8)"
	case OrderQKtLateV:
		return "qkt-lateV"
	case OrderQWkEarlyV:
		return "qwk-earlyV"
	case OrderFusedQKEarly:
		return "fusedQK-earlyV"
	case OrderFusedQKLate:
		return "fusedQK-lateV"
	case OrderFusedQKRight:
		return "fusedQK-right"
	case OrderInsideOut:
		return "inside-out"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// MatMulCost returns the paper's Γ for an m×k by k×n product.
func MatMulCost(m, k, n int) int64 {
	return int64(m) * int64(k) * int64(n)
}

// scoreCost returns the FLOPs of computing the P×N score matrix argument
// x_p·WQ·WKᵀ·xᵀ under each association (paper Eqs. 10–14). Softmax and the
// 1/√FH scaling are O(PN) and charged separately in elementwiseCost.
func scoreCost(s Shape, o Order) int64 {
	n, p, f, fh := int64(s.N), int64(s.P), int64(s.F), int64(s.FH)
	switch o {
	case OrderNaive:
		// Q = x_p WQ (P·F·FH), K = x WK (N·F·FH), Q·Kᵀ (P·FH·N).
		return p*f*fh + n*f*fh + p*fh*n
	case OrderReordered, OrderQWkEarlyV:
		// Eq. 10: ((x_p WQ) WKᵀ) xᵀ = P·F·FH + P·FH·F + P·F·N.
		return 2*p*f*fh + p*f*n
	case OrderQKtLateV:
		// Eq. 11: (x_p WQ)(WKᵀ xᵀ) = P·F·FH + N·F·FH + P·FH·N.
		return p*f*fh + n*f*fh + p*fh*n
	case OrderFusedQKEarly, OrderFusedQKLate:
		// Eq. 12: (x_p (WQ WKᵀ)) xᵀ = P·F·F + P·F·N. WQ·WKᵀ itself is a
		// one-time constant precomputed before inference and excluded, as
		// in the paper.
		return p*f*f + p*f*n
	case OrderFusedQKRight:
		// Eq. 13: x_p ((WQ WKᵀ) xᵀ) = N·F·F + P·F·N.
		return n*f*f + p*f*n
	case OrderInsideOut:
		// Eq. 14: x_p (WQ (WKᵀ xᵀ)) = N·F·FH + F·FH·N + P·F·N.
		// The paper condenses this as 2NFFH + PNFH by associating the last
		// product differently; we follow the literal parenthesization
		// x_p·(WQ·(WKᵀ·xᵀ)): WKᵀxᵀ is FH×N (N·F·FH), WQ·that is F×N
		// (F·FH·N), x_p·that is P×N (P·F·N).
		return n*f*fh + f*fh*n + p*f*n
	default:
		return -1
	}
}

// valueCost returns the FLOPs of applying the P×N matrix S to x·WV under
// the order's value-step association (paper Eq. 6).
func valueCost(s Shape, o Order) int64 {
	n, p, f, fh := int64(s.N), int64(s.P), int64(s.F), int64(s.FH)
	switch o {
	case OrderNaive, OrderQWkEarlyV, OrderFusedQKEarly, OrderFusedQKRight, OrderInsideOut:
		// S·(x WV): V = x WV (N·F·FH) + S·V (P·N·FH).
		return n*f*fh + p*n*fh
	case OrderReordered, OrderQKtLateV, OrderFusedQKLate:
		// (S·x)·WV: S·x (P·N·F) + ·WV (P·F·FH).
		return p*n*f + p*f*fh
	default:
		return -1
	}
}

// elementwiseCost charges the softmax and scaling of the P×N score matrix.
// Both are linear in the element count; we charge 2 ops per element
// (divide + softmax pass) to keep a concrete constant.
func elementwiseCost(s Shape) int64 {
	return 2 * int64(s.P) * int64(s.N)
}

// Cost returns the total Γ of computing one head's output partition Ap(x)
// under order o.
func Cost(s Shape, o Order) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	sc, vc := scoreCost(s, o), valueCost(s, o)
	if sc < 0 || vc < 0 {
		return 0, fmt.Errorf("flopcount: unknown order %v", o)
	}
	return sc + vc + elementwiseCost(s), nil
}

// MustCost is Cost for known-valid inputs; it panics on error.
func MustCost(s Shape, o Order) int64 {
	c, err := Cost(s, o)
	if err != nil {
		panic(err)
	}
	return c
}

// BestOrderBruteForce returns the order with minimal Cost by enumeration,
// breaking ties in favour of the order listed earlier in AllOrders.
func BestOrderBruteForce(s Shape) (Order, int64, error) {
	if err := s.Validate(); err != nil {
		return 0, 0, err
	}
	best := AllOrders[0]
	bestCost := MustCost(s, best)
	for _, o := range AllOrders[1:] {
		if c := MustCost(s, o); c < bestCost {
			best, bestCost = o, c
		}
	}
	return best, bestCost, nil
}

// PreferReordered implements the Theorem 2 predicate: it reports whether
// 1/P − 1/N > (F−FH)/(F·FH), i.e. whether the reordered computation (Eq. 8)
// beats the naive one (Eq. 3). Evaluated in exact integer arithmetic:
//
//	(N−P)·F·FH > P·N·(F−FH)
func PreferReordered(s Shape) bool {
	lhs := int64(s.N-s.P) * int64(s.F) * int64(s.FH)
	rhs := int64(s.P) * int64(s.N) * int64(s.F-s.FH)
	return lhs > rhs
}

// SelectOrder returns the order Algorithm 1 uses for the given shape: the
// reordered computation when Theorem 2's condition holds, otherwise the
// naive one.
func SelectOrder(s Shape) Order {
	if PreferReordered(s) {
		return OrderReordered
	}
	return OrderNaive
}

// Theorem1Cost returns the closed-form cost of the naive method (Eq. 4):
//
//	P·F·FH + 2·P·N·FH + 2·N·F·FH + O(PN)
//
// with the O(PN) term charged as elementwiseCost for consistency with Cost.
func Theorem1Cost(s Shape) int64 {
	n, p, f, fh := int64(s.N), int64(s.P), int64(s.F), int64(s.FH)
	return p*f*fh + 2*p*n*fh + 2*n*f*fh + elementwiseCost(s)
}

// Theorem3Cost returns the closed-form cost of the reordered method used in
// the proof of Theorem 3:
//
//	3·P·F·FH + 2·P·N·F + O(PN)
func Theorem3Cost(s Shape) int64 {
	n, p, f, fh := int64(s.N), int64(s.P), int64(s.F), int64(s.FH)
	return 3*p*f*fh + 2*p*n*f + elementwiseCost(s)
}

// CrossoverK returns the smallest integer partition count K ≥ 1 such that
// with P = N/K the reordered order wins, i.e. K > (F−FH)/(F·FH)·N + 1
// (from the proof of Theorem 3). It is the point where Fig. 6's curves
// separate.
func CrossoverK(n, f, fh int) int {
	// Need the smallest integer K with K−1 > t where t = (F−FH)·N/(F·FH).
	// K−1 = floor(t)+1 satisfies strict inequality whether or not t is an
	// integer, so K = floor(t)+2.
	num := int64(f-fh) * int64(n)
	den := int64(f) * int64(fh)
	k := num/den + 2
	if k < 1 {
		k = 1
	}
	return int(k)
}

// LayerCost returns the total Γ of one partitioned transformer layer
// (Algorithm 1) for H heads plus the position-wise remainder: the output
// projection (P·F·F), the feed-forward network (2·P·F·Dff) and the
// layer norms / residuals (O(P·F)).
func LayerCost(s Shape, heads, dff int, o Order) (int64, error) {
	headCost, err := Cost(s, o)
	if err != nil {
		return 0, err
	}
	p, f := int64(s.P), int64(s.F)
	proj := p * f * f
	ffn := p*f*int64(dff) + p*int64(dff)*f
	rest := 4 * p * f // residuals + two layer norms, linear terms
	return int64(heads)*headCost + proj + ffn + rest, nil
}

// EmbedCost is the Γ of embedding n token ids into n×F features: the
// token + position sum and one layer norm, linear terms counted as LayerCost
// counts its residuals and layer norms (2·N·F).
func EmbedCost(n, f int) int64 {
	return 2 * int64(n) * int64(f)
}
