package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
)

// soloReference decodes each prompt on a single-device replica — the
// bit-exactness oracle for every batched run.
func soloReference(t *testing.T, prompts [][]int, steps int) [][]int {
	t.Helper()
	ref, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, p := range prompts {
		w, err := ref.GenerateIncremental(p, steps)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	return want
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchPrompts is a membership-diverse workload: different lengths, so the
// fused sequences sit at different cache positions.
var batchPrompts = [][]int{
	{4, 8, 15},
	{16, 23},
	{42, 4, 8, 15, 16},
	{23, 42, 4, 8},
}

func TestBatchedGenerateConcurrentMatchesSolo(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{MaxBatch: 4, BatchWindow: 30 * time.Millisecond})
	defer c.Close()
	const steps = 6
	want := soloReference(t, batchPrompts, steps)

	results := make([]*GenerateResult, len(batchPrompts))
	errs := make([]error, len(batchPrompts))
	var wg sync.WaitGroup
	for i, p := range batchPrompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			results[i], errs[i] = c.GenerateVoltage(context.Background(), p, steps)
		}(i, p)
	}
	wg.Wait()
	for i := range batchPrompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: batched tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
		if results[i].PrefillLatency <= 0 || results[i].DecodeLatency <= 0 {
			t.Errorf("stream %d: latencies %v/%v", i, results[i].PrefillLatency, results[i].DecodeLatency)
		}
		if len(results[i].PerDevice) != c.K()+1 {
			t.Errorf("stream %d: %d per-device stats, want %d", i, len(results[i].PerDevice), c.K()+1)
		}
	}

	snap := c.Metrics()
	if got := snap.Counter("voltage_batch_joins_total"); got != float64(len(batchPrompts)) {
		t.Errorf("batch joins = %v, want %d", got, len(batchPrompts))
	}
	if got := snap.Counter("voltage_batch_leaves_total"); got != float64(len(batchPrompts)) {
		t.Errorf("batch leaves = %v, want %d", got, len(batchPrompts))
	}
	h, ok := snap.Histograms["voltage_batch_size"]
	if !ok || h.Count == 0 {
		t.Fatalf("batch size histogram = %+v ok=%v, want observations", h, ok)
	}
	// The window coalesced 4 concurrent streams: the mean fused width must
	// exceed one, or the "batch" degenerated to serial.
	if h.Sum <= float64(h.Count) {
		t.Errorf("mean batch width = %v over %d steps, want > 1", h.Sum/float64(h.Count), h.Count)
	}
	if got := snap.Counter("voltage_fused_steps_total"); got != float64(h.Count) {
		t.Errorf("fused steps = %v, batch size count = %d", got, h.Count)
	}
	if wh, ok := snap.Histograms["voltage_batch_wait_seconds"]; !ok || wh.Count != uint64(len(batchPrompts)) {
		t.Errorf("batch wait histogram = %+v ok=%v, want %d observations", wh, ok, len(batchPrompts))
	}
	if w := c.BatchWidth(); w != 0 {
		t.Errorf("idle BatchWidth = %d, want 0", w)
	}
}

// TestBatchWidthZeroAfterEveryReturn: a sequence gives its live slot back
// before its caller is woken, so a caller that has returned — and the
// gateway's batch-aware admission estimate, which divides by BatchWidth —
// never sees its own finished sequence counted live. Covers the mesh path
// and the terminal-local fallback (every worker unhealthy).
func TestBatchWidthZeroAfterEveryReturn(t *testing.T) {
	ctx := context.Background()
	generate := func(c *Cluster, i int) *GenerateResult {
		t.Helper()
		res, err := c.GenerateVoltage(ctx, []int{1 + i%90, 2, 3}, 2)
		if w := c.BatchWidth(); w != 0 || err != nil {
			t.Fatalf("call %d: BatchWidth = %d after the return (err %v), want 0", i, w, err)
		}
		return res
	}
	c := newTinyDecoder(t, 2, Options{})
	for i := 0; i < 300; i++ {
		generate(c, i)
	}
	down := newTinyDecoder(t, 2, Options{MaxRetries: 1})
	for r := 0; r < 2; r++ {
		down.health.recordFailure(r, errors.New("rank marked down by the test"))
	}
	for i := 0; i < 20; i++ {
		if res := generate(down, i); !res.Degraded {
			t.Fatalf("call %d: served by the mesh, want the terminal-local fallback", i)
		}
	}
	if got := down.Metrics().Counter("voltage_local_fallbacks_total"); got != 20 {
		t.Errorf("local fallbacks = %v, want 20", got)
	}
}

func TestBatchedGenerateDegenerateBatchOfOne(t *testing.T) {
	// A lone request is the degenerate batch of one: tokens, latencies and
	// traffic accounting must match the solo oracle with no co-batching.
	c := newTinyDecoder(t, 3, Options{MaxBatch: 1})
	defer c.Close()
	want := soloReference(t, batchPrompts[:1], 6)
	res, err := c.GenerateVoltage(context.Background(), batchPrompts[0], 6)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTokens(res.Tokens, want[0]) {
		t.Fatalf("tokens %v != solo %v", res.Tokens, want[0])
	}
	snap := c.Metrics()
	if h := snap.Histograms["voltage_batch_size"]; h.Sum != float64(h.Count) {
		t.Errorf("serial run fused width sum %v over %d steps, want all ones", h.Sum, h.Count)
	}
}

func TestBatchedGenerateChurnCancelMidBatch(t *testing.T) {
	// A sequence canceled mid-batch leaves at the next step boundary
	// without perturbing the other sequences' tokens.
	c := newTinyDecoder(t, 3, Options{MaxBatch: 4, BatchWindow: 30 * time.Millisecond})
	defer c.Close()
	const steps = 8
	want := soloReference(t, batchPrompts, steps)

	const victim = 1
	results := make([]*GenerateResult, len(batchPrompts))
	errs := make([]error, len(batchPrompts))
	var wg sync.WaitGroup
	for i, p := range batchPrompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			if i != victim {
				results[i], errs[i] = c.GenerateVoltage(context.Background(), p, steps)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := 0
			results[i], errs[i] = c.GenerateVoltageStream(ctx, p, steps, func(int) {
				got++
				if got == 2 {
					cancel() // abandon mid-decode, after two streamed tokens
				}
			})
		}(i, p)
	}
	wg.Wait()
	if !errors.Is(errs[victim], context.Canceled) {
		t.Fatalf("victim error = %v, want context.Canceled", errs[victim])
	}
	for i := range batchPrompts {
		if i == victim {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("survivor %d: tokens %v != solo %v after churn", i, results[i].Tokens, want[i])
		}
	}
	snap := c.Metrics()
	if got := snap.Counter("voltage_batch_leaves_total"); got < float64(len(batchPrompts)) {
		t.Errorf("batch leaves = %v, want at least %d (canceled sequence must leave)", got, len(batchPrompts))
	}
}

func TestBatchedGenerateChaosDelayedPeerStaysExact(t *testing.T) {
	// A flaky-delay peer slows fused steps but must not perturb a single
	// token: membership and exactness hold under chaos.
	c := newTinyDecoder(t, 3, Options{
		MaxBatch:    4,
		BatchWindow: 30 * time.Millisecond,
		WrapTransport: wrapRank(1, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, DelayEvery: 3, Delay: 2 * time.Millisecond}
		}),
	})
	defer c.Close()
	const steps = 5
	want := soloReference(t, batchPrompts, steps)
	results := make([]*GenerateResult, len(batchPrompts))
	errs := make([]error, len(batchPrompts))
	var wg sync.WaitGroup
	for i, p := range batchPrompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			results[i], errs[i] = c.GenerateVoltage(context.Background(), p, steps)
		}(i, p)
	}
	wg.Wait()
	for i := range batchPrompts {
		if errs[i] != nil {
			t.Fatalf("stream %d under delay chaos: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens diverged under delay chaos", i)
		}
	}
}

func TestBatchedGenerateSequentialAfterDrain(t *testing.T) {
	// The batch retires when it drains; a later request must start a fresh
	// one. Back-to-back solo requests through the same cluster exercise the
	// batcher's run/retire cycle.
	c := newTinyDecoder(t, 2, Options{})
	defer c.Close()
	want := soloReference(t, batchPrompts[:2], 4)
	for round := 0; round < 2; round++ {
		for i, p := range batchPrompts[:2] {
			res, err := c.GenerateVoltage(context.Background(), p, 4)
			if err != nil {
				t.Fatalf("round %d stream %d: %v", round, i, err)
			}
			if !equalTokens(res.Tokens, want[i]) {
				t.Errorf("round %d stream %d: tokens diverged", round, i)
			}
		}
	}
}
