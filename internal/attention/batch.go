package attention

import (
	"fmt"
	"math"

	"voltage/internal/tensor"
)

// Iteration-level batched decoding: StepBatch advances B independent
// sequences by one position each in a single pass. The position-wise
// projections (Q/K/V, the WO output projection) fuse across the batch
// dimension — one matmul over a B×F input instead of B matmuls over 1×F —
// while the attention scores are computed per sequence against that
// sequence's own K/V cache, since caches differ in length and content.
//
// Exactness: tensor.MatMul computes each output row independently with an
// identical floating-point operation order regardless of the operand's row
// count, LayerNorm/softmax/bias are row-wise, and the per-sequence score
// path is byte-for-byte the solo StepHead code. Row i of a StepBatch over
// states[0..B) is therefore bit-identical to a solo Step on states[i] —
// the property the distributed batched decoder's tests pin down.

// StepBatch computes the multi-head attention output (B×F, after the WO
// projection and bias) for one new position of each of B sequences,
// appending each position to its sequence's cache. Row i of xNew is
// sequence i's layer input; states[i] is its cache.
func (m *MultiHead) StepBatch(states []*MultiHeadState, xNew *tensor.Matrix) (*tensor.Matrix, error) {
	b := len(states)
	if b == 0 {
		return nil, fmt.Errorf("%w: empty batch", tensor.ErrShape)
	}
	if xNew.Rows() != b || xNew.Cols() != m.F() {
		return nil, fmt.Errorf("%w: batched input %dx%d, want %dx%d",
			tensor.ErrShape, xNew.Rows(), xNew.Cols(), b, m.F())
	}
	for i, s := range states {
		if len(s.Heads) != len(m.Heads) {
			return nil, fmt.Errorf("%w: state %d has %d heads, block has %d",
				tensor.ErrShape, i, len(s.Heads), len(m.Heads))
		}
	}
	scale := float32(1 / math.Sqrt(float64(m.FH())))
	headOuts := make([]*tensor.Matrix, len(m.Heads))
	for hi, h := range m.Heads {
		// Fused across the batch: the new position's K/V/Q projections.
		kNew, err := tensor.MatMul(xNew, h.WK)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", hi, err)
		}
		vNew, err := tensor.MatMul(xNew, h.WV)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", hi, err)
		}
		q, err := tensor.MatMul(xNew, h.WQ)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", hi, err)
		}
		// Per sequence: append to its cache and attend over it.
		out := tensor.New(b, h.FH())
		for i, s := range states {
			hs := s.Heads[hi]
			if hs.K, err = appendRow(hs.K, kNew.Row(i)); err != nil {
				return nil, err
			}
			if hs.V, err = appendRow(hs.V, vNew.Row(i)); err != nil {
				return nil, err
			}
			qi, err := q.RowSlice(i, i+1)
			if err != nil {
				return nil, err
			}
			scores, err := tensor.MatMulT(qi, hs.K) // 1×t_i
			if err != nil {
				return nil, err
			}
			tensor.ScaleInPlace(scores, scale)
			tensor.SoftmaxRowsInPlace(scores)
			oi, err := tensor.MatMul(scores, hs.V)
			if err != nil {
				return nil, err
			}
			copy(out.Row(i), oi.Row(0))
		}
		headOuts[hi] = out
	}
	return m.project(headOuts)
}
