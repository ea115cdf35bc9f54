package model

import (
	"errors"
	"testing"

	"voltage/internal/flopcount"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// sameBits reports whether two matrices are equal element for element.
func sameBits(a, b *tensor.Matrix) bool {
	d, err := a.MaxAbsDiff(b)
	return err == nil && d == 0
}

// TestForwardPartitionCachedSharesKV: the partition is the naive order's, bit
// for bit, and the cache is the K/V a separate projection of x would build —
// for a full, an interior, a last-row and an empty range.
func TestForwardPartitionCachedSharesKV(t *testing.T) {
	l, err := NewRandomLayer(TinyDecoder(), tensor.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(22).Normal(11, l.F(), 1)
	wantState, err := l.Attn.Prefill(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []partition.Range{{From: 0, To: 11}, {From: 3, To: 7}, {From: 10, To: 11}, {From: 5, To: 5}} {
		part, state, err := l.ForwardPartitionCached(x, r)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		want, err := l.ForwardPartitionFixedOrder(x, r, flopcount.OrderNaive)
		if err != nil {
			t.Fatal(err)
		}
		if part.Rows() != r.Len() || !sameBits(part, want) {
			t.Errorf("%v: partition differs from the naive order's", r)
		}
		for h, hs := range state.Attn.Heads {
			if !sameBits(hs.K, wantState.Heads[h].K) || !sameBits(hs.V, wantState.Heads[h].V) {
				t.Errorf("%v: head %d cache differs from x·WK, x·WV", r, h)
			}
		}
	}
	if _, _, err := l.ForwardPartitionCached(x, partition.Range{From: 9, To: 12}); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("range past the input: %v, want ErrShape", err)
	}
}

// TestPrefillReturnsLastRowOfFullForward: computing only the last row at the
// last layer changes nothing about it.
func TestPrefillReturnsLastRowOfFullForward(t *testing.T) {
	for _, layers := range []int{1, 2, 3} {
		cfg := TinyDecoder()
		cfg.Layers = layers
		m, err := NewRandom(cfg, 23)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 9} {
			x := tensor.NewRNG(24).Normal(n, cfg.F, 1)
			last, state, err := m.Prefill(x)
			if err != nil {
				t.Fatal(err)
			}
			full, err := m.ForwardFeatures(x)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := full.RowSlice(n-1, n)
			if last.Rows() != 1 || !sameBits(last, want) {
				t.Errorf("L=%d N=%d: prefill row differs from the full forward's last row", layers, n)
			}
			if state.Pos != n || len(state.Layers) != layers || state.Layers[layers-1].Attn.Len() != n {
				t.Errorf("L=%d N=%d: cache pos %d over %d layers", layers, n, state.Pos, len(state.Layers))
			}
		}
	}
}

func TestLayerIncrementalMatchesFullCausal(t *testing.T) {
	l, err := NewRandomLayer(TinyDecoder(), tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	x := rng.Normal(9, l.F(), 1)
	full, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := x.RowSlice(0, 4)
	// An empty range asks for the cache alone.
	part, state, err := l.ForwardPartitionCached(prefix, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	if part.Rows() != 0 || part.Cols() != l.F() {
		t.Fatalf("empty range returned a %dx%d partition", part.Rows(), part.Cols())
	}
	for pos := 4; pos < 9; pos++ {
		row, _ := x.RowSlice(pos, pos+1)
		out, err := l.ForwardIncremental(state, row)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := full.RowSlice(pos, pos+1)
		if !out.AlmostEqual(want, 1e-3) {
			d, _ := out.MaxAbsDiff(want)
			t.Fatalf("incremental layer position %d differs by %v", pos, d)
		}
	}
}

func TestPrefillRequiresDecoder(t *testing.T) {
	m, err := NewRandom(Tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(4).Normal(4, m.Cfg.F, 1)
	if _, _, err := m.Prefill(x); err == nil {
		t.Fatal("want error for prefill on encoder")
	}
}

func TestEmbedTokenAtMatchesEmbedTokens(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{3, 14, 15, 92}
	full, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		t.Fatal(err)
	}
	for pos, id := range ids {
		row, err := m.Embed.EmbedTokenAt(id, pos)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := full.RowSlice(pos, pos+1)
		if !row.AlmostEqual(want, 1e-6) {
			t.Fatalf("EmbedTokenAt(%d,%d) differs from EmbedTokens row", id, pos)
		}
	}
}

func TestEmbedTokenAtValidation(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Embed.EmbedTokenAt(-1, 0); err == nil {
		t.Fatal("want error for bad id")
	}
	if _, err := m.Embed.EmbedTokenAt(0, 9999); err == nil {
		t.Fatal("want error for bad position")
	}
	vm, err := NewRandom(TinyVision(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Embed.EmbedTokenAt(0, 0); err == nil {
		t.Fatal("want error for vision model")
	}
}

func TestDecodeStepMatchesFullRecompute(t *testing.T) {
	// Pushing tokens through the cache must give the same hidden state as
	// re-running the whole stack on the extended sequence.
	m, err := NewRandom(TinyDecoder(), 8)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 9, 27}
	x, err := m.Embed.EmbedTokens(prompt)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := m.Prefill(x)
	if err != nil {
		t.Fatal(err)
	}
	seq := append([]int(nil), prompt...)
	for _, next := range []int{41, 7, 63} {
		got, err := m.DecodeStep(state, next)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, next)
		fullX, err := m.Embed.EmbedTokens(seq)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.ForwardFeatures(fullX)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := full.RowSlice(full.Rows()-1, full.Rows())
		if !got.AlmostEqual(want, 1e-2) {
			d, _ := got.MaxAbsDiff(want)
			t.Fatalf("decode step for token %d differs from recompute by %v", next, d)
		}
	}
	if state.Pos != 6 {
		t.Fatalf("state.Pos = %d, want 6", state.Pos)
	}
}

func TestDecodeStepLayerMismatch(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DecodeStep(&DecodeState{}, 1); err == nil {
		t.Fatal("want error for empty cache")
	}
}

func TestGenerateIncrementalMatchesFullGenerate(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 10)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	const steps = 5
	fast, err := m.GenerateIncremental(prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: naive full-recompute greedy decoding.
	slow := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		next, err := m.NextToken(slow)
		if err != nil {
			t.Fatal(err)
		}
		slow = append(slow, next)
	}
	if len(fast) != len(slow) {
		t.Fatalf("lengths differ: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("incremental and full decoding diverge at %d: %v vs %v", i, fast, slow)
		}
	}
}

func TestGenerateIncrementalValidation(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.GenerateIncremental(nil, 3); err == nil {
		t.Fatal("want error for empty prompt")
	}
	enc, err := NewRandom(Tiny(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.GenerateIncremental([]int{1}, 3); err == nil {
		t.Fatal("want error for encoder")
	}
}

func TestGenerateIncrementalRespectsMaxSeq(t *testing.T) {
	cfg := TinyDecoder()
	cfg.MaxSeq = 5
	m, err := NewRandom(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.GenerateIncremental([]int{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 5 {
		t.Fatalf("generated %d tokens past MaxSeq", len(out))
	}
}

func TestResumeStateContinuesExactly(t *testing.T) {
	// A decode interrupted at any point must continue bit-identically (at
	// the token level) after re-prefilling its committed prefix: the resumed
	// greedy stream is the tail of the uninterrupted one. This is the
	// exactness argument behind the batcher's mid-batch fault recovery.
	m, err := NewRandom(TinyDecoder(), 14)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 9, 2, 7}
	const steps = 10
	want, err := m.GenerateIncremental(prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < steps; cut++ {
		prefix := append([]int(nil), want[:len(prompt)+cut]...)
		last, state, err := m.ResumeState(prefix)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		tokens := prefix
		for len(tokens) < len(want) {
			logits, err := m.LM.NextTokenLogits(last)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			tokens = append(tokens, Argmax(logits))
			if len(tokens) == len(want) {
				break
			}
			last, err = m.DecodeStep(state, tokens[len(tokens)-1])
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		for i := range want {
			if tokens[i] != want[i] {
				t.Fatalf("cut %d: token %d = %d, want %d (resumed stream diverged)", cut, i, tokens[i], want[i])
			}
		}
	}
}

func TestResumeStateValidation(t *testing.T) {
	m, err := NewRandom(TinyDecoder(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ResumeState(nil); err == nil {
		t.Fatal("want error for empty prefix")
	}
}
