package model

import (
	"fmt"

	"voltage/internal/attention"
	"voltage/internal/tensor"
)

// Iteration-level batched decoding over the full stack: DecodeStepBatch
// advances B independent sequences (each with its own KV cache and
// position) by one token in a single pass per layer. The position-wise
// work — Q/K/V/WO projections, the FFN, the layer norms — fuses across the
// batch dimension into one matmul per weight per layer; only the attention
// scores stay per-sequence (see attention.StepBatch). Row i of every
// intermediate is bit-identical to a solo DecodeStep on sequence i, so the
// continuous-batching serving path inherits the repo's exactness
// discipline with sequences free to join and leave between steps.

// ForwardIncrementalBatch computes the layer output (B×F) for one new
// position of each of B sequences given their caches, appending each
// position to its cache. Row i of xNew is sequence i's input.
func (l *Layer) ForwardIncrementalBatch(states []*LayerState, xNew *tensor.Matrix) (*tensor.Matrix, error) {
	attnStates := make([]*attention.MultiHeadState, len(states))
	for i, s := range states {
		attnStates[i] = s.Attn
	}
	attnOut, err := l.Attn.StepBatch(attnStates, xNew)
	if err != nil {
		return nil, err
	}
	return l.finish(attnOut, xNew)
}

// DecodeStepBatch pushes one token through the cached stack for each of B
// sequences, returning the final hidden states (B×F, row i = sequence i)
// and advancing every cache. ids[i] is sequence i's token; states[i] its
// cache. Sequences may sit at different positions — each row is embedded
// at its own cache length.
func (m *Model) DecodeStepBatch(states []*DecodeState, ids []int) (*tensor.Matrix, error) {
	b := len(states)
	if b == 0 {
		return nil, fmt.Errorf("model: empty decode batch")
	}
	if len(ids) != b {
		return nil, fmt.Errorf("model: %d tokens for %d sequences", len(ids), b)
	}
	x := tensor.New(b, m.Cfg.F)
	for i, s := range states {
		if len(s.Layers) != len(m.Layers) {
			return nil, fmt.Errorf("model: cache %d has %d layers, model %d", i, len(s.Layers), len(m.Layers))
		}
		row, err := m.Embed.EmbedTokenAt(ids[i], s.Pos)
		if err != nil {
			return nil, err
		}
		copy(x.Row(i), row.Row(0))
	}
	layerStates := make([]*LayerState, b)
	for li, l := range m.Layers {
		for i, s := range states {
			layerStates[i] = s.Layers[li]
		}
		out, err := l.ForwardIncrementalBatch(layerStates, x)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", li, err)
		}
		x = out
	}
	for _, s := range states {
		s.Pos++
	}
	return x, nil
}
