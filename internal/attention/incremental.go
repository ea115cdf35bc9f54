package attention

import (
	"fmt"
	"math"

	"voltage/internal/tensor"
)

// This file implements KV-cached incremental attention for autoregressive
// decoding — the natural extension of Voltage to generation workloads.
// After a (possibly distributed) prefill over the prompt, each device
// caches the K and V projections of every layer; decoding one token then
// costs O(N·F) per layer instead of re-running the full O(N²)+O(N·F²)
// stack, and the only traffic per step is the token id and one F-vector.

// HeadState is the cached K/V of one attention head: t×FH matrices that
// grow by one row per decoded token.
type HeadState struct {
	K, V *tensor.Matrix
}

// Len returns the number of cached positions.
func (s *HeadState) Len() int {
	if s.K == nil {
		return 0
	}
	return s.K.Rows()
}

// appendRow grows a cached matrix by one position in place; the cache's
// backing array grows geometrically (tensor.Matrix.AppendRow), so a decode
// step no longer copies every head's whole K and V.
func appendRow(cur *tensor.Matrix, row []float32) (*tensor.Matrix, error) {
	if cur == nil {
		cur = tensor.New(0, len(row))
	}
	return cur, cur.AppendRow(row)
}

// PrefillHead builds a head's cache from the full layer input x (the
// prompt prefill): K = x·WK, V = x·WV.
func PrefillHead(h *HeadWeights, x *tensor.Matrix) (*HeadState, error) {
	k, err := tensor.MatMul(x, h.WK)
	if err != nil {
		return nil, err
	}
	v, err := tensor.MatMul(x, h.WV)
	if err != nil {
		return nil, err
	}
	return &HeadState{K: k, V: v}, nil
}

// StepHead computes the attention output of one new position given its
// layer input row xNew (1×F), appending the position's K/V to the cache.
// Causality is implicit: the new position attends to every cached position
// plus itself and nothing later exists yet.
func StepHead(h *HeadWeights, s *HeadState, xNew *tensor.Matrix) (*tensor.Matrix, error) {
	if xNew.Rows() != 1 || xNew.Cols() != h.F() {
		return nil, fmt.Errorf("%w: incremental input %dx%d, want 1x%d",
			tensor.ErrShape, xNew.Rows(), xNew.Cols(), h.F())
	}
	kNew, err := tensor.MatMul(xNew, h.WK)
	if err != nil {
		return nil, err
	}
	vNew, err := tensor.MatMul(xNew, h.WV)
	if err != nil {
		return nil, err
	}
	if s.K, err = appendRow(s.K, kNew.Row(0)); err != nil {
		return nil, err
	}
	if s.V, err = appendRow(s.V, vNew.Row(0)); err != nil {
		return nil, err
	}
	return attend(h, s, xNew, false, 0)
}

// attend computes softmax(xp·WQ·Kᵀ/√FH)·V against the cached K and V: the
// naive association (Eq. 3) with K = x·WK and V = x·WV already materialised.
// With causal set, row i of xp is position rowOffset+i of the cached input.
func attend(h *HeadWeights, s *HeadState, xp *tensor.Matrix, causal bool, rowOffset int) (*tensor.Matrix, error) {
	q, err := tensor.MatMul(xp, h.WQ)
	if err != nil {
		return nil, err
	}
	scores, err := tensor.MatMulT(q, s.K) // P×t
	if err != nil {
		return nil, err
	}
	tensor.ScaleInPlace(scores, float32(1/math.Sqrt(float64(h.FH()))))
	if causal {
		maskCausal(scores, rowOffset)
	}
	tensor.SoftmaxRowsInPlace(scores)
	return tensor.MatMul(scores, s.V)
}

// MultiHeadState is the cached K/V of a complete multi-head block.
type MultiHeadState struct {
	Heads []*HeadState
}

// Len returns the number of cached positions.
func (s *MultiHeadState) Len() int {
	if len(s.Heads) == 0 {
		return 0
	}
	return s.Heads[0].Len()
}

// Prefill builds the block's cache from the full layer input x.
func (m *MultiHead) Prefill(x *tensor.Matrix) (*MultiHeadState, error) {
	heads := make([]*HeadState, len(m.Heads))
	for i, h := range m.Heads {
		s, err := PrefillHead(h, x)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", i, err)
		}
		heads[i] = s
	}
	return &MultiHeadState{Heads: heads}, nil
}

// ForwardCached computes the block's output for the partition xp of the full
// layer input x (row i of xp is position rowOffset+i) and returns with it the
// block's decode cache over x. The cache is the K = x·WK, V = x·WV the naive
// association materialises anyway, so a prefill that wants both pays for the
// projections once. Theorem 2's test does not apply here: the reordered
// association saves exactly these two products, and a caller that keeps them
// has to compute them regardless. The partition rows are bit-identical to
// ForwardWithOptions under OrderNaive. xp may have no rows (an owner whose
// partition is empty): the result is then the cache and a 0×F partition.
func (m *MultiHead) ForwardCached(x, xp *tensor.Matrix, causal bool, rowOffset int) (*tensor.Matrix, *MultiHeadState, error) {
	if x.Cols() != m.F() || xp.Cols() != m.F() {
		return nil, nil, fmt.Errorf("%w: input cols %d/%d vs F %d", tensor.ErrShape, x.Cols(), xp.Cols(), m.F())
	}
	if causal && (rowOffset < 0 || rowOffset+xp.Rows() > x.Rows()) {
		return nil, nil, fmt.Errorf("%w: row offset %d + P %d outside N %d", tensor.ErrShape, rowOffset, xp.Rows(), x.Rows())
	}
	state, err := m.Prefill(x)
	if err != nil {
		return nil, nil, err
	}
	if xp.Rows() == 0 {
		return tensor.New(0, m.F()), state, nil
	}
	outs := make([]*tensor.Matrix, len(m.Heads))
	for i, h := range m.Heads {
		if outs[i], err = attend(h, state.Heads[i], xp, causal, rowOffset); err != nil {
			return nil, nil, fmt.Errorf("head %d: %w", i, err)
		}
	}
	out, err := m.project(outs)
	return out, state, err
}

// Step computes the multi-head attention output (1×F, after the WO
// projection and bias) for one new position, appending to the cache.
func (m *MultiHead) Step(s *MultiHeadState, xNew *tensor.Matrix) (*tensor.Matrix, error) {
	if len(s.Heads) != len(m.Heads) {
		return nil, fmt.Errorf("%w: state has %d heads, block has %d",
			tensor.ErrShape, len(s.Heads), len(m.Heads))
	}
	outs := make([]*tensor.Matrix, len(m.Heads))
	for i, h := range m.Heads {
		o, err := StepHead(h, s.Heads[i], xNew)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", i, err)
		}
		outs[i] = o
	}
	return m.project(outs)
}
