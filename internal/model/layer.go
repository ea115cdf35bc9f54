package model

import (
	"voltage/internal/attention"
	"voltage/internal/flopcount"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// Layer is one transformer layer: multi-head self-attention with residual
// and layer norm, followed by a position-wise feed-forward network with
// residual and layer norm (post-LN, as in the original transformer and
// BERT).
type Layer struct {
	Attn *attention.MultiHead

	// Feed-forward network: Act(x·W1 + b1)·W2 + b2.
	W1 *tensor.Matrix
	B1 []float32
	W2 *tensor.Matrix
	B2 []float32

	// Layer norm parameters after attention (1) and after FFN (2).
	LN1Gain, LN1Bias []float32
	LN2Gain, LN2Bias []float32

	Act    tensor.Activation
	Eps    float32
	Causal bool // decoder layers mask future positions
}

// NewRandomLayer builds a deterministic layer for the given architecture.
func NewRandomLayer(cfg Config, rng *tensor.RNG) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mh, err := attention.RandomMultiHead(rng, cfg.Heads, cfg.F, cfg.FH())
	if err != nil {
		return nil, err
	}
	return &Layer{
		Attn:    mh,
		W1:      rng.XavierNormal(cfg.F, cfg.FFN),
		B1:      tensor.Zeros(cfg.FFN),
		W2:      rng.XavierNormal(cfg.FFN, cfg.F),
		B2:      tensor.Zeros(cfg.F),
		LN1Gain: tensor.Ones(cfg.F),
		LN1Bias: tensor.Zeros(cfg.F),
		LN2Gain: tensor.Ones(cfg.F),
		LN2Bias: tensor.Zeros(cfg.F),
		Act:     cfg.Act,
		Eps:     cfg.Eps(),
		Causal:  cfg.Kind == KindDecoder,
	}, nil
}

// F returns the layer's feature dimensionality.
func (l *Layer) F() int { return l.Attn.F() }

// ffn applies the position-wise feed-forward network to m.
func (l *Layer) ffn(m *tensor.Matrix) (*tensor.Matrix, error) {
	h, err := tensor.MatMul(m, l.W1)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddBiasInPlace(h, l.B1); err != nil {
		return nil, err
	}
	l.Act.ApplyInPlace(h)
	out, err := tensor.MatMul(h, l.W2)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddBiasInPlace(out, l.B2); err != nil {
		return nil, err
	}
	return out, nil
}

// finish applies everything after the attention block to its output for the
// rows xp (Algorithm 1, lines 10–11): Y ← LayerNorm(R + x_p), then
// T_p(x) ← LayerNorm(Y + FFN(Y)). attnOut is consumed.
func (l *Layer) finish(attnOut, xp *tensor.Matrix) (*tensor.Matrix, error) {
	if err := tensor.AddInPlace(attnOut, xp); err != nil {
		return nil, err
	}
	y, err := tensor.LayerNorm(attnOut, l.LN1Gain, l.LN1Bias, l.Eps)
	if err != nil {
		return nil, err
	}
	f, err := l.ffn(y)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddInPlace(f, y); err != nil {
		return nil, err
	}
	return tensor.LayerNorm(f, l.LN2Gain, l.LN2Bias, l.Eps)
}

// Forward computes the full layer output T(x) for all positions (the
// single-device path).
func (l *Layer) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	out, _, err := l.ForwardPartition(x, partition.Range{From: 0, To: x.Rows()})
	return out, err
}

// ForwardPartition implements Algorithm 1: it computes the layer output
// partition T_p(x) for the position range r, choosing the self-attention
// computation order by Theorem 2 (line 3; all heads share one shape, so one
// selection covers every head), and returns the order used.
func (l *Layer) ForwardPartition(x *tensor.Matrix, r partition.Range) (*tensor.Matrix, flopcount.Order, error) {
	order := flopcount.OrderNaive
	if !r.Empty() {
		order = flopcount.SelectOrder(flopcount.Shape{N: x.Rows(), P: r.Len(), F: l.Attn.F(), FH: l.Attn.FH()})
	}
	out, err := l.ForwardPartitionFixedOrder(x, r, order)
	return out, order, err
}

// ForwardPartitionFixedOrder is ForwardPartition with the attention
// computation order forced (used by the naive-partition baseline in the
// Fig. 6 experiment and by ablations).
func (l *Layer) ForwardPartitionFixedOrder(x *tensor.Matrix, r partition.Range, order flopcount.Order) (*tensor.Matrix, error) {
	xp, err := x.RowSlice(r.From, r.To) // also checks r against x
	if err != nil {
		return nil, err
	}
	if r.Empty() {
		return tensor.New(0, x.Cols()), nil
	}
	// Lines 2–9: per-head attention in the given order, concatenated and
	// projected by WO.
	attnOut, err := l.Attn.ForwardWithOptions(x, xp, attention.Options{
		Order: order, Causal: l.Causal, RowOffset: r.From,
	})
	if err != nil {
		return nil, err
	}
	return l.finish(attnOut, xp)
}

// ForwardPartitionCached computes the partition T_p(x) for r in the naive
// association and returns with it the layer's decode cache over x — the K and
// V that association materialises (attention.MultiHead.ForwardCached), so a
// prefill projects them once. r may be empty: the cache is then all the
// caller gets. The partition rows are bit-identical to
// ForwardPartitionFixedOrder under OrderNaive.
func (l *Layer) ForwardPartitionCached(x *tensor.Matrix, r partition.Range) (*tensor.Matrix, *LayerState, error) {
	xp, err := x.RowSlice(r.From, r.To) // also checks r against x
	if err != nil {
		return nil, nil, err
	}
	attnOut, attn, err := l.Attn.ForwardCached(x, xp, l.Causal, r.From)
	if err != nil {
		return nil, nil, err
	}
	state := &LayerState{Attn: attn}
	if r.Empty() {
		return attnOut, state, nil
	}
	out, err := l.finish(attnOut, xp)
	return out, state, err
}

// Cost returns the analytic Γ of computing a partition of length p of this
// layer for input length n under Algorithm 1's selected order.
func (l *Layer) Cost(n, p int) (int64, error) {
	shape := flopcount.Shape{N: n, P: p, F: l.Attn.F(), FH: l.Attn.FH()}
	return flopcount.LayerCost(shape, l.Attn.H(), l.W1.Cols(), flopcount.SelectOrder(shape))
}

// CachedCost is the analytic Γ of ForwardPartitionCached for input length n
// and partition length p: the naive-order layer cost, whose 2·N·F·FH per head
// are the cache. With p = 0 only those projections run.
func (l *Layer) CachedCost(n, p int) (int64, error) {
	if p == 0 {
		return 2 * int64(l.Attn.H()) * flopcount.MatMulCost(n, l.Attn.F(), l.Attn.FH()), nil
	}
	shape := flopcount.Shape{N: n, P: p, F: l.Attn.F(), FH: l.Attn.FH()}
	return flopcount.LayerCost(shape, l.Attn.H(), l.W1.Cols(), flopcount.OrderNaive)
}
