package attention

import (
	"fmt"
	"math"

	"voltage/internal/flopcount"
	"voltage/internal/tensor"
)

// Options controls a masked/offset attention computation.
//
// Causal masking is applied to the P×N score matrix before the softmax, so
// it composes with every computation order: all orders materialize the same
// score matrix, they only differ in how they reach it. RowOffset gives the
// global position of xp's first row within x so the mask lines up when xp
// is an interior partition.
type Options struct {
	Order     flopcount.Order
	Causal    bool
	RowOffset int
}

// negInf is the additive mask value; after softmax the masked entries are
// exactly zero because exp(-inf) underflows to 0.
var negInf = float32(math.Inf(-1))

// maskCausal sets scores[i][j] = -inf for j > RowOffset+i, i.e. position
// RowOffset+i may not attend to any later position.
func maskCausal(scores *tensor.Matrix, rowOffset int) {
	for i := 0; i < scores.Rows(); i++ {
		limit := rowOffset + i + 1
		if limit >= scores.Cols() {
			continue
		}
		row := scores.Row(i)
		for j := limit; j < len(row); j++ {
			row[j] = negInf
		}
	}
}

// ComputeWithOptions is Compute with optional causal masking. With
// opts.Causal false it is equivalent to Compute(h, x, xp, opts.Order).
func ComputeWithOptions(h *HeadWeights, x, xp *tensor.Matrix, opts Options) (*tensor.Matrix, error) {
	if x.Cols() != h.F() || xp.Cols() != h.F() {
		return nil, fmt.Errorf("%w: input cols %d/%d vs F %d",
			tensor.ErrShape, x.Cols(), xp.Cols(), h.F())
	}
	if opts.Causal && (opts.RowOffset < 0 || opts.RowOffset+xp.Rows() > x.Rows()) {
		return nil, fmt.Errorf("%w: row offset %d + P %d outside N %d",
			tensor.ErrShape, opts.RowOffset, xp.Rows(), x.Rows())
	}
	scores, err := scoreMatrix(h, x, xp, opts.Order)
	if err != nil {
		return nil, err
	}
	tensor.ScaleInPlace(scores, float32(1/math.Sqrt(float64(h.FH()))))
	if opts.Causal {
		maskCausal(scores, opts.RowOffset)
	}
	tensor.SoftmaxRowsInPlace(scores)
	return valueProduct(h, x, scores, opts.Order)
}

// ForwardWithOptions is MultiHead.Forward with optional causal masking.
func (m *MultiHead) ForwardWithOptions(x, xp *tensor.Matrix, opts Options) (*tensor.Matrix, error) {
	outs := make([]*tensor.Matrix, len(m.Heads))
	for i, h := range m.Heads {
		o, err := ComputeWithOptions(h, x, xp, opts)
		if err != nil {
			return nil, fmt.Errorf("head %d: %w", i, err)
		}
		outs[i] = o
	}
	return m.project(outs)
}
