package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
)

// Chaos tests for the fault-tolerant batcher: a device dying mid-batch must
// not lose co-batched sequences — survivors park, the rank is blamed, and
// every stream resumes bit-identically on the re-sliced survivor partition
// (or the terminal replica when no worker survives). Sequence-attributable
// faults go the other way: they retire one sequence while the batch keeps
// decoding.

// runBatch fires the prompts concurrently and waits for every stream.
func runBatch(c *Cluster, prompts [][]int, steps int) ([]*GenerateResult, []error) {
	results := make([]*GenerateResult, len(prompts))
	errs := make([]error, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			results[i], errs[i] = c.GenerateVoltage(context.Background(), p, steps)
		}(i, p)
	}
	wg.Wait()
	return results, errs
}

func TestBatchedGenerateWorkerKilledMidBatchResumes(t *testing.T) {
	// Rank 1 — owner of the second of four sequences — dies mid-batch: its
	// receive stream is cut after the co-batched prefills have landed (4
	// joins × one pass frame, plus the two Gather shares of the join it owns:
	// 6 receives; then one receive per round it owns rows in), on its 5th
	// step frame, killing a fused round under 4 live sequences. The batcher must
	// blame rank 1, re-slice the partition over ranks {0,2}, and resume
	// every sequence, whoever owned it, from its committed prefix on a
	// fresh owner — all four token streams stay bit-identical to solo runs.
	c := newTinyDecoder(t, 3, Options{
		MaxBatch: 4, BatchWindow: 60 * time.Millisecond, MaxRetries: 2,
		WrapTransport: wrapRank(1, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, FailRecvAfter: 11}
		}),
	})
	defer c.Close()
	const steps = 8
	want := soloReference(t, batchPrompts, steps)

	results, errs := runBatch(c, batchPrompts, steps)
	resumed := 0
	for i := range batchPrompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
		if results[i].Attempts > 1 {
			resumed++
			if !results[i].Degraded {
				t.Errorf("stream %d: resumed (%d attempts) but not degraded", i, results[i].Attempts)
			}
		}
	}
	if resumed == 0 {
		t.Error("no stream rode out the fault: the injected failure never hit a batch round")
	}
	if h := c.Health()[1]; h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
		t.Errorf("rank 1 health = %v (%v), want Unhealthy with ErrInjected", h.State, h.LastErr)
	}
	snap := c.Metrics()
	if got := snap.Counter(`voltage_batch_recoveries_total{cause="injected"}`); got < 1 {
		t.Errorf("injected recoveries = %v, want >= 1", got)
	}
	if got := snap.Counter("voltage_batch_seqs_resumed_total"); got < 1 {
		t.Errorf("sequences resumed = %v, want >= 1", got)
	}
	if got := snap.Counter("voltage_batch_seqs_failed_total"); got != 0 {
		t.Errorf("sequences failed = %v, want 0 (every survivor resumes)", got)
	}
	if joins, leaves := snap.Counter("voltage_batch_joins_total"), snap.Counter("voltage_batch_leaves_total"); joins != leaves {
		t.Errorf("joins %v != leaves %v after recovery", joins, leaves)
	}
}

func TestBatchedGenerateZeroSurvivorsFallsBackLocally(t *testing.T) {
	// The only worker dies on its first prefill send, before any sequence
	// commits a token. With nothing left to re-slice over, both parked
	// sequences must complete on the terminal's own replica — exact tokens,
	// flagged degraded.
	c := newTinyDecoder(t, 1, Options{
		MaxBatch: 2, BatchWindow: 40 * time.Millisecond, MaxRetries: 1,
		WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, FailSendAfter: 1}
		}),
	})
	defer c.Close()
	const steps = 5
	prompts := batchPrompts[:2]
	want := soloReference(t, prompts, steps)

	results, errs := runBatch(c, prompts, steps)
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
		if !results[i].Degraded {
			t.Errorf("stream %d: terminal-local fallback not flagged degraded", i)
		}
	}
	if h := c.Health()[0]; h.State != Unhealthy {
		t.Errorf("rank 0 health = %v, want Unhealthy", h.State)
	}
	snap := c.Metrics()
	if got := snap.Counter("voltage_local_fallbacks_total"); got != float64(len(prompts)) {
		t.Errorf("local fallbacks = %v, want %d", got, len(prompts))
	}
	if got := snap.Counter(`voltage_batch_recoveries_total{cause="injected"}`); got < 1 {
		t.Errorf("injected recoveries = %v, want >= 1", got)
	}
}

func TestBatchedGenerateCorruptJoinRetiresOneSequence(t *testing.T) {
	// Rank 2 sends two frames per prefill (its share of the Gather to the
	// owner, then its partition to the terminal) and, owning neither
	// sequence (they land on ranks 0 and 1), nothing in between: its 4th
	// send is the second joiner's prefill partition, corrupted on the wire,
	// and its 8th is never reached (the rejoin makes six). The frame checksum blames the sender,
	// and the blast radius must stay sequence-local: the victim alone
	// re-parks and resumes at the next step boundary while the first
	// sequence keeps decoding — no batch recovery round at all.
	c := newTinyDecoder(t, 3, Options{
		MaxBatch: 2, BatchWindow: 50 * time.Millisecond, MaxRetries: 1,
		WrapTransport: wrapRank(2, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, CorruptEvery: 4}
		}),
	})
	defer c.Close()
	const steps = 6
	prompts := batchPrompts[:2]
	want := soloReference(t, prompts, steps)

	results, errs := runBatch(c, prompts, steps)
	retried := 0
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
		if results[i].Attempts > 1 {
			retried++
		}
	}
	if retried != 1 {
		t.Errorf("%d streams retried, want exactly the corrupted joiner", retried)
	}
	// Rank 2 was blamed for the corrupt frame, but the retry round it
	// participated in succeeded — recordSuccess may already have recovered
	// it by the time the streams resolve. The blame itself is durable.
	if h := c.Health()[2]; h.Failures < 1 || !errors.Is(h.LastErr, comm.ErrCorrupt) {
		t.Errorf("rank 2 health = %+v, want >=1 failure with ErrCorrupt", h)
	}
	snap := c.Metrics()
	if got := snap.Counter(`voltage_batch_recoveries_total{cause="corrupt"}`); got != 0 {
		t.Errorf("batch recoveries = %v, want 0 (the fault was sequence-local)", got)
	}
	if got := snap.Counter("voltage_batch_seqs_resumed_total"); got != 1 {
		t.Errorf("sequences resumed = %v, want 1", got)
	}
	if joins, leaves := snap.Counter("voltage_batch_joins_total"), snap.Counter("voltage_batch_leaves_total"); joins != 3 || leaves != 3 {
		t.Errorf("joins/leaves = %v/%v, want 3/3 (one rejoin)", joins, leaves)
	}
}

func TestBatchWindowHoldsForUncancellableCallers(t *testing.T) {
	// context.Background() has no Done channel. The window must still run
	// out for such a caller, so a second one arriving inside it joins before
	// the first decode step: every fused round is two sequences wide, and
	// the first caller's batch wait is the window, not zero.
	const window = 200 * time.Millisecond
	c := newTinyDecoder(t, 2, Options{MaxBatch: 4, BatchWindow: window})
	defer c.Close()
	const steps = 4
	prompts := batchPrompts[:2]
	want := soloReference(t, prompts, steps)
	results := make([]*GenerateResult, len(prompts))
	errs := make([]error, len(prompts))
	var wg sync.WaitGroup
	for i := range prompts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GenerateVoltage(context.Background(), prompts[i], steps)
		}(i)
		time.Sleep(20 * time.Millisecond) // the second arrives inside the window
	}
	wg.Wait()
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
	}
	if wait := results[0].BatchWait; wait < window/2 {
		t.Errorf("first caller waited %v to join, want the %v window", wait, window)
	}
	if h := c.Metrics().Histograms["voltage_batch_size"]; h.Count != steps-1 || h.Sum != 2*float64(h.Count) {
		t.Errorf("%d fused rounds, summed width %v, want %d rounds of both sequences", h.Count, h.Sum, steps-1)
	}
}

func TestBatchWindowCancelDoesNotDispatchEmptyBatch(t *testing.T) {
	// A sequence canceled while the batch window is still coalescing must
	// be dropped without spending a fenced mesh round on an empty batch,
	// and the batcher must stay usable afterwards.
	c := newTinyDecoder(t, 2, Options{MaxBatch: 4, BatchWindow: 300 * time.Millisecond})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.GenerateVoltage(ctx, batchPrompts[0], 4)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // inside the window
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stream returned %v", err)
	}
	// The run goroutine resolves the abandoned sequence asynchronously.
	deadline := time.After(2 * time.Second)
	for {
		if c.Metrics().Counter("voltage_requests_canceled_total") >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("abandoned sequence never drained from the window")
		case <-time.After(5 * time.Millisecond):
		}
	}
	snap := c.Metrics()
	if got := snap.Counter("voltage_fused_steps_total"); got != 0 {
		t.Errorf("fused steps = %v, want 0 (no round for an empty batch)", got)
	}
	if got := snap.Counter("voltage_batch_joins_total"); got != 0 {
		t.Errorf("batch joins = %v, want 0", got)
	}
	// A fresh sequence after the abandoned window decodes normally.
	want := soloReference(t, batchPrompts[:1], 4)
	res, err := c.GenerateVoltage(context.Background(), batchPrompts[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTokens(res.Tokens, want[0]) {
		t.Errorf("post-cancel tokens %v != solo %v", res.Tokens, want[0])
	}
}
