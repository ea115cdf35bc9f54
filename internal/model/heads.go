package model

import (
	"fmt"

	"voltage/internal/tensor"
)

// Classifier is the post-processing head that maps the transformer stack's
// output to class logits. Encoder and vision models classify from the first
// position (the [CLS]/class token); decoders classify from the last
// position, matching common fine-tuning practice.
type Classifier struct {
	cfg Config
	W   *tensor.Matrix // F×NumClasses
	B   []float32
}

// NewRandomClassifier builds a deterministic classifier head for cfg.
func NewRandomClassifier(cfg Config, rng *tensor.RNG) (*Classifier, error) {
	if cfg.NumClasses < 1 {
		return nil, fmt.Errorf("model: %s: classes %d < 1", cfg.Name, cfg.NumClasses)
	}
	return &Classifier{
		cfg: cfg,
		W:   rng.XavierNormal(cfg.F, cfg.NumClasses),
		B:   tensor.Zeros(cfg.NumClasses),
	}, nil
}

// PooledRow is the one of n final hidden rows Logits reads: the first (the
// [CLS]/class token) of an encoder or vision model, the last of a decoder.
func (c *Classifier) PooledRow(n int) int {
	if c.cfg.Kind == KindDecoder {
		return n - 1
	}
	return 0
}

// Logits maps the N×F final hidden states to class logits. It reads
// PooledRow alone, so the 1×F matrix holding just that row maps to the same
// logits.
func (c *Classifier) Logits(hidden *tensor.Matrix) ([]float32, error) {
	if hidden.Rows() == 0 || hidden.Cols() != c.cfg.F {
		return nil, fmt.Errorf("%w: hidden %dx%d, want ?x%d",
			tensor.ErrShape, hidden.Rows(), hidden.Cols(), c.cfg.F)
	}
	row := c.PooledRow(hidden.Rows())
	pooled, err := hidden.RowSlice(row, row+1)
	if err != nil {
		return nil, err
	}
	logits, err := tensor.MatMul(pooled, c.W)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddBiasInPlace(logits, c.B); err != nil {
		return nil, err
	}
	out := make([]float32, c.cfg.NumClasses)
	copy(out, logits.Row(0))
	return out, nil
}

// Predict returns the argmax class of Logits.
func (c *Classifier) Predict(hidden *tensor.Matrix) (int, error) {
	logits, err := c.Logits(hidden)
	if err != nil {
		return 0, err
	}
	return Argmax(logits), nil
}

// Argmax returns the index of the largest value (first on ties, -1 for an
// empty slice).
func Argmax(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}

// LMHead projects the final hidden state of the last position onto the
// vocabulary for next-token prediction (GPT-2 generation).
type LMHead struct {
	cfg Config
	W   *tensor.Matrix // F×VocabSize
}

// NewRandomLMHead builds a deterministic LM head for cfg.
func NewRandomLMHead(cfg Config, rng *tensor.RNG) (*LMHead, error) {
	if cfg.Kind == KindVision {
		return nil, fmt.Errorf("model: %s: LM head on a vision model", cfg.Name)
	}
	return &LMHead{cfg: cfg, W: rng.XavierNormal(cfg.F, cfg.VocabSize)}, nil
}

// NextTokenLogits returns the vocabulary logits for the position after the
// final one.
func (h *LMHead) NextTokenLogits(hidden *tensor.Matrix) ([]float32, error) {
	if hidden.Rows() == 0 || hidden.Cols() != h.cfg.F {
		return nil, fmt.Errorf("%w: hidden %dx%d, want ?x%d",
			tensor.ErrShape, hidden.Rows(), hidden.Cols(), h.cfg.F)
	}
	// A 1×F view of the last row, not a copy; the product's one row is
	// freshly allocated, so it is returned as it is.
	last, err := tensor.NewFromData(1, h.cfg.F, hidden.Row(hidden.Rows()-1))
	if err != nil {
		return nil, err
	}
	logits, err := tensor.MatMul(last, h.W)
	if err != nil {
		return nil, err
	}
	return logits.Row(0), nil
}
