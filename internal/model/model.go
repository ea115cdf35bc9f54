package model

import (
	"fmt"

	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// Model is a complete transformer: embedding, a stack of transformer
// layers, and task heads. Weights are deterministic functions of (config,
// seed), so every device in a cluster can materialize an identical replica
// locally — the property Voltage exploits to avoid shipping weights.
type Model struct {
	Cfg        Config
	Embed      *Embedding
	Layers     []*Layer
	Classifier *Classifier
	LM         *LMHead // nil for vision models
}

// NewRandom builds the model for cfg with weights derived from seed.
func NewRandom(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	embed, err := NewRandomEmbedding(cfg, rng)
	if err != nil {
		return nil, err
	}
	layers := make([]*Layer, cfg.Layers)
	for i := range layers {
		l, err := NewRandomLayer(cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		layers[i] = l
	}
	cls, err := NewRandomClassifier(cfg, rng)
	if err != nil {
		return nil, err
	}
	m := &Model{Cfg: cfg, Embed: embed, Layers: layers, Classifier: cls}
	if cfg.Kind != KindVision {
		lm, err := NewRandomLMHead(cfg, rng)
		if err != nil {
			return nil, err
		}
		m.LM = lm
	}
	return m, nil
}

// ForwardFeatures runs the full transformer stack on the embedded input x,
// single-device (every layer computes all positions).
func (m *Model) ForwardFeatures(x *tensor.Matrix) (*tensor.Matrix, error) {
	cur := x
	for i, l := range m.Layers {
		out, err := l.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		cur = out
	}
	return cur, nil
}

// Causal reports whether every layer masks future positions, so that rows
// [0, n) of the stack's output are a function of rows [0, n) of its input
// alone — what lets a position-wise device keep only the prefix its slice
// reads.
func (m *Model) Causal() bool {
	for _, l := range m.Layers {
		if !l.Causal {
			return false
		}
	}
	return len(m.Layers) > 0
}

// ClassifyTokens embeds a token sequence, runs the stack, and returns the
// predicted class — the end-to-end single-device text path.
func (m *Model) ClassifyTokens(ids []int) (int, error) {
	x, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		return 0, err
	}
	h, err := m.ForwardFeatures(x)
	if err != nil {
		return 0, err
	}
	return m.Classifier.Predict(h)
}

// ClassifyImage embeds an image, runs the stack, and returns the predicted
// class — the end-to-end single-device vision path.
func (m *Model) ClassifyImage(im *Image) (int, error) {
	x, err := m.Embed.EmbedImage(im)
	if err != nil {
		return 0, err
	}
	h, err := m.ForwardFeatures(x)
	if err != nil {
		return 0, err
	}
	return m.Classifier.Predict(h)
}

// NextToken returns the argmax next token for a decoder model, used by the
// autoregressive generation example.
func (m *Model) NextToken(ids []int) (int, error) {
	if m.LM == nil {
		return 0, fmt.Errorf("model: %s has no LM head", m.Cfg.Name)
	}
	x, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		return 0, err
	}
	h, err := m.ForwardFeatures(x)
	if err != nil {
		return 0, err
	}
	logits, err := m.LM.NextTokenLogits(h)
	if err != nil {
		return 0, err
	}
	return Argmax(logits), nil
}

// ForwardLayerPartition computes layer i's output partition T_p(x) for the
// position range r — the unit of work Voltage assigns to one device.
func (m *Model) ForwardLayerPartition(layer int, x *tensor.Matrix, r partition.Range) (*tensor.Matrix, error) {
	if layer < 0 || layer >= len(m.Layers) {
		return nil, fmt.Errorf("model: layer %d of %d", layer, len(m.Layers))
	}
	out, _, err := m.Layers[layer].ForwardPartition(x, r)
	return out, err
}

// CostPerLayer returns the analytic Γ of one layer for input length n and
// partition length p.
func (m *Model) CostPerLayer(n, p int) (int64, error) {
	if len(m.Layers) == 0 {
		return 0, fmt.Errorf("model: no layers")
	}
	return m.Layers[0].Cost(n, p)
}

// TotalCost returns the analytic Γ of the whole stack for input length n
// and per-device partition length p.
func (m *Model) TotalCost(n, p int) (int64, error) {
	per, err := m.CostPerLayer(n, p)
	if err != nil {
		return 0, err
	}
	return per * int64(len(m.Layers)), nil
}
