package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"voltage/internal/model"
	"voltage/internal/netem"
)

func newTinyDecoder(t testing.TB, k int, opts Options) *Cluster {
	t.Helper()
	c, err := NewMem(model.TinyDecoder(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestGenerateVoltageMatchesSingleDeviceIncremental(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{})
	prompt := []int{4, 8, 15}
	const steps = 6
	res, err := c.GenerateVoltage(context.Background(), prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: single-device KV-cached generation on an identical
	// replica.
	ref, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.GenerateIncremental(prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != len(want) {
		t.Fatalf("lengths differ: %d vs %d (%v vs %v)", len(res.Tokens), len(want), res.Tokens, want)
	}
	for i := range want {
		if res.Tokens[i] != want[i] {
			t.Fatalf("distributed decoding diverges at %d: %v vs %v", i, res.Tokens, want)
		}
	}
	if res.PrefillLatency <= 0 || res.DecodeLatency <= 0 {
		t.Fatalf("latencies %v / %v", res.PrefillLatency, res.DecodeLatency)
	}
	if len(res.PerDevice) != 4 {
		t.Fatalf("PerDevice %d entries", len(res.PerDevice))
	}
}

func TestGenerateVoltageMatchesFullRecomputeGeneration(t *testing.T) {
	// And against the non-cached distributed path used by Engine.Generate.
	c := newTinyDecoder(t, 2, Options{})
	prompt := []int{1, 2, 3, 4}
	const steps = 4
	fast, err := c.GenerateVoltage(context.Background(), prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		next, err := ref.NextToken(slow)
		if err != nil {
			t.Fatal(err)
		}
		slow = append(slow, next)
	}
	for i := range slow {
		if fast.Tokens[i] != slow[i] {
			t.Fatalf("cached and full decoding diverge at %d: %v vs %v", i, fast.Tokens, slow)
		}
	}
}

func TestGenerateVoltageValidation(t *testing.T) {
	enc := newTiny(t, 2, Options{})
	if _, err := enc.GenerateVoltage(context.Background(), []int{1}, 2); err == nil {
		t.Fatal("want error for encoder model")
	}
	dec := newTinyDecoder(t, 2, Options{})
	if _, err := dec.GenerateVoltage(context.Background(), nil, 2); err == nil {
		t.Fatal("want error for empty prompt")
	}
	if _, err := dec.GenerateVoltage(context.Background(), []int{1}, -1); err == nil {
		t.Fatal("want error for negative steps")
	}
}

func TestGenerateVoltageMaxSeqCap(t *testing.T) {
	cfg := model.TinyDecoder()
	cfg.MaxSeq = 6
	c, err := NewMem(cfg, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) > 6 {
		t.Fatalf("generated %d tokens past MaxSeq", len(res.Tokens))
	}
}

func TestGenerateVoltageDecodeTrafficTiny(t *testing.T) {
	// The point of the KV-cached path: decode-step traffic per worker is
	// tiny (a 4-byte frame in; worker 0 sends one F-row back), far below
	// one prefill All-Gather.
	c := newTinyDecoder(t, 3, Options{})
	prompt := []int{2, 4, 6, 8, 10, 12, 14, 16}
	res, err := c.GenerateVoltage(context.Background(), prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Config().F
	// Worker 1 (not the reporter): receives prompt + gathers + 4-byte
	// frames; sends only All-Gather partitions during prefill.
	w1 := res.PerDevice[1]
	prefillSend := int64(c.Config().Layers-1) * int64(2) * (int64(4*len(prompt)*f/3) + 12)
	if w1.BytesSent > 2*prefillSend+1024 {
		t.Fatalf("worker 1 sent %d bytes, expected ≈prefill-only (%d)", w1.BytesSent, prefillSend)
	}
	// Terminal's decode sends: 4 bytes per worker per step.
	if res.DecodeLatency > res.PrefillLatency*100 {
		t.Fatalf("decode %v unreasonably slow vs prefill %v", res.DecodeLatency, res.PrefillLatency)
	}
}

func TestGenerateVoltageUnderBandwidthLimit(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{Profile: netem.Profile{BandwidthMbps: 50, Latency: time.Millisecond}})
	res, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 6 {
		t.Fatalf("tokens %d", len(res.Tokens))
	}
}

func TestGenerateVoltageContextCancel(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{Profile: netem.Profile{BandwidthMbps: 0.05}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.GenerateVoltage(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, 3); err == nil {
		t.Fatal("want error from cancelled generation")
	}
}

// TestGenerateVoltageStreamNoCallbackAfterReturn cancels streams mid-decode
// from a third goroutine. Once GenerateVoltageStream has returned, the
// caller owns whatever the token callback touched: no callback may begin,
// and none may still be running. The callback and the caller share a plain
// counter, so under -race a late or in-flight callback is a reported data
// race; the flag catches a late one without the detector too.
func TestGenerateVoltageStreamNoCallbackAfterReturn(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{MaxBatch: 2})
	prompt := []int{4, 8, 15}
	for i := 0; i < 120; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var returned atomic.Bool
		seen := 0
		// Sweep the cancel across the first few decode rounds.
		delay := time.Duration(i%40) * 50 * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := c.GenerateVoltageStream(ctx, prompt, 40, func(int) {
			if returned.Load() {
				t.Error("token callback began after GenerateVoltageStream returned")
			}
			time.Sleep(50 * time.Microsecond) // a write to a slow client
			seen++
		})
		returned.Store(true)
		seen++
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// The abandoned sequences left at step boundaries; the batcher still
	// serves exact streams.
	want := soloReference(t, [][]int{prompt}, 6)
	res, err := c.GenerateVoltage(context.Background(), prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTokens(res.Tokens, want[0]) {
		t.Errorf("tokens after the cancel sweep %v != solo %v", res.Tokens, want[0])
	}
}
