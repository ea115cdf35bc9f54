package model

import (
	"fmt"

	"voltage/internal/attention"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// This file implements KV-cached incremental decoding over the full
// transformer stack: prefill once over the prompt (optionally distributed
// with Algorithm 2), then decode each token with O(N) attention per layer
// instead of re-running the whole stack.

// LayerState is the decoding cache of one transformer layer.
type LayerState struct {
	Attn *attention.MultiHeadState
}

// DecodeState is the decoding cache of a whole model plus the running
// position counter.
type DecodeState struct {
	Layers []*LayerState
	// Pos is the number of positions processed so far (cache length).
	Pos int
}

// ForwardIncremental computes the layer output for one new position (1×F)
// given the cache, appending the position to the cache.
func (l *Layer) ForwardIncremental(s *LayerState, xNew *tensor.Matrix) (*tensor.Matrix, error) {
	attnOut, err := l.Attn.Step(s.Attn, xNew)
	if err != nil {
		return nil, err
	}
	return l.finish(attnOut, xNew)
}

// Prefill runs the full stack over the embedded prompt x and returns what
// generation reads of it: the final hidden state of the last position (1×F,
// the row the first token decodes from) and a decode cache holding every
// layer's K/V. Each layer projects K and V once, for its attention and its
// cache alike (ForwardPartitionCached), and the last layer computes only the
// last row — no later layer reads the others.
func (m *Model) Prefill(x *tensor.Matrix) (*tensor.Matrix, *DecodeState, error) {
	if m.Cfg.Kind != KindDecoder {
		return nil, nil, fmt.Errorf("model: %s is not a decoder", m.Cfg.Name)
	}
	n := x.Rows()
	state := &DecodeState{Layers: make([]*LayerState, len(m.Layers)), Pos: n}
	cur := x
	for i, l := range m.Layers {
		r := partition.Range{From: 0, To: n}
		if i == len(m.Layers)-1 {
			r.From = n - 1
		}
		out, ls, err := l.ForwardPartitionCached(cur, r)
		if err != nil {
			return nil, nil, fmt.Errorf("layer %d: %w", i, err)
		}
		state.Layers[i], cur = ls, out
	}
	return cur, state, nil
}

// EmbedTokenAt embeds a single token at an absolute position — the decode
// step's input. The embedding layer norm is position-wise, so the row is
// identical to what EmbedTokens would produce at that index.
func (e *Embedding) EmbedTokenAt(id, pos int) (*tensor.Matrix, error) {
	if e.cfg.Kind == KindVision {
		return nil, fmt.Errorf("model: %s is a vision model", e.cfg.Name)
	}
	if id < 0 || id >= e.cfg.VocabSize {
		return nil, fmt.Errorf("model: token id %d outside vocab %d", id, e.cfg.VocabSize)
	}
	if pos < 0 || pos >= e.cfg.MaxSeq {
		return nil, fmt.Errorf("model: position %d outside max %d", pos, e.cfg.MaxSeq)
	}
	out := tensor.New(1, e.cfg.F)
	dst := out.Row(0)
	tok := e.tokenTable.Row(id)
	posRow := e.posTable.Row(pos)
	for j := range dst {
		dst[j] = tok[j] + posRow[j]
	}
	return tensor.LayerNorm(out, e.lnGain, e.lnBias, e.cfg.Eps())
}

// DecodeStep pushes one token through the cached stack, returning the
// final hidden state of the new position (1×F) and advancing the cache.
func (m *Model) DecodeStep(state *DecodeState, id int) (*tensor.Matrix, error) {
	if len(state.Layers) != len(m.Layers) {
		return nil, fmt.Errorf("model: cache has %d layers, model %d", len(state.Layers), len(m.Layers))
	}
	x, err := m.Embed.EmbedTokenAt(id, state.Pos)
	if err != nil {
		return nil, err
	}
	for i, l := range m.Layers {
		out, err := l.ForwardIncremental(state.Layers[i], x)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		x = out
	}
	state.Pos++
	return x, nil
}

// ResumeState rebuilds a decode cache from an already-committed token
// prefix — prompt plus any generated continuation — returning the final
// hidden row (1×F) the next token decodes from, along with the rebuilt
// cache. The prefix is exact integers, so greedy decoding from the rebuilt
// state continues the token stream exactly where an uninterrupted run would
// have: this is what lets the fault-tolerant batcher re-prefill a surviving
// sequence onto a re-partitioned mesh (or the terminal replica) after a
// mid-batch device failure without perturbing its output.
func (m *Model) ResumeState(tokens []int) (*tensor.Matrix, *DecodeState, error) {
	if len(tokens) == 0 {
		return nil, nil, fmt.Errorf("model: empty resume prefix")
	}
	x, err := m.Embed.EmbedTokens(tokens)
	if err != nil {
		return nil, nil, err
	}
	return m.Prefill(x)
}

// GenerateIncremental decodes steps tokens greedily with the KV cache,
// single-device. It is the reference the distributed decoder is tested
// against.
func (m *Model) GenerateIncremental(prompt []int, steps int) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model: empty prompt")
	}
	x, err := m.Embed.EmbedTokens(prompt)
	if err != nil {
		return nil, err
	}
	// The first next-token decodes from the prefill's last row.
	last, state, err := m.Prefill(x)
	if err != nil {
		return nil, err
	}
	tokens := make([]int, len(prompt), len(prompt)+steps)
	copy(tokens, prompt)
	for i := 0; i < steps; i++ {
		if len(tokens) >= m.Cfg.MaxSeq {
			break
		}
		logits, err := m.lmLogits(last)
		if err != nil {
			return nil, err
		}
		next := Argmax(logits)
		tokens = append(tokens, next)
		if i == steps-1 || len(tokens) >= m.Cfg.MaxSeq {
			break
		}
		last, err = m.DecodeStep(state, next)
		if err != nil {
			return nil, err
		}
	}
	return tokens, nil
}

// lmLogits projects a single hidden row through the LM head.
func (m *Model) lmLogits(row *tensor.Matrix) ([]float32, error) {
	if m.LM == nil {
		return nil, fmt.Errorf("model: %s has no LM head", m.Cfg.Name)
	}
	return m.LM.NextTokenLogits(row)
}
