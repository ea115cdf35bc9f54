package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/trace"
)

// Tests of passes that overlap on the mesh: the terminal scatters the next
// pass while the replies of the one before are still out, and a worker starts
// it as soon as its own part of that one is done.

// overlapIDs are two classifies of different lengths, so that neither's
// traffic or spans could pass for the other's.
var overlapIDs = [][]int{promptIn(wireCfg(model.KindDecoder), 17), promptIn(wireCfg(model.KindDecoder), 29)}

// overlapped submits the two classifies to a cluster whose rank 0 is held by
// a gate until both have been scattered — the second while the first cannot
// have landed — and returns their handles once the gate is open again.
func overlapped(t *testing.T, opts Options, wrap func(rank int, p comm.Peer) comm.Peer) (*Cluster, []*Pending) {
	t.Helper()
	release, entered := make(chan struct{}), make(chan struct{})
	opts.WrapTransport = func(rank int, p comm.Peer) comm.Peer {
		if rank == 0 {
			return &gatePeer{Peer: p, release: release, entered: entered}
		}
		return wrap(rank, p)
	}
	c, err := NewMem(wireCfg(model.KindDecoder), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var pends []*Pending
	for i, ids := range overlapIDs {
		pend, err := c.SubmitTokens(context.Background(), StrategyVoltage, ids)
		if err != nil {
			t.Fatal(err)
		}
		pends = append(pends, pend)
		if i == 0 {
			<-entered
		}
	}
	waitCond(t, 10*time.Second, "both passes to be scattered", func() bool {
		return c.Metrics().Gauge("voltage_queue_length") == 0
	})
	select {
	case <-pends[0].Done():
		t.Fatal("the first pass landed while rank 0 was held")
	default:
	}
	close(release)
	return c, pends
}

// soloTokens runs ids alone on a fresh healthy cluster of k workers.
func soloTokens(t *testing.T, k int, opts Options, ids []int) *Result {
	t.Helper()
	c, err := NewMem(wireCfg(model.KindDecoder), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, _ := classifyTokens(t, c, ids)
	return res
}

// spanKinds counts a trace's spans by rank, layer and phase.
func spanKinds(tr *trace.RequestTrace) map[string]int {
	kinds := make(map[string]int)
	for _, s := range tr.Spans() {
		kinds[fmt.Sprintf("rank %d layer %d %v", s.Rank, s.Layer, s.Phase)]++
	}
	return kinds
}

// TestOverlappedPassesMatchSerial: two classifies on the mesh at once each
// answer with the row, the per-rank traffic — bytes and messages, every
// worker's and the terminal's — and the spans a run of it alone gives, bit for
// bit and span for span: nothing of one pass is counted or traced as the
// other's.
func TestOverlappedPassesMatchSerial(t *testing.T) {
	opts := Options{TraceRequests: true}
	c, pends := overlapped(t, opts, func(_ int, p comm.Peer) comm.Peer { return p })
	var sum []comm.Stats
	for i, pend := range pends {
		res, err := pend.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := soloTokens(t, 3, opts, overlapIDs[i])
		if !res.Output.Equal(want.Output) {
			t.Errorf("pass %d: its row differs from a run of it alone", i)
		}
		if !slices.Equal(res.PerDevice, want.PerDevice) {
			t.Errorf("pass %d: traffic %+v, alone %+v", i, res.PerDevice, want.PerDevice)
		}
		if got, alone := spanKinds(res.Trace), spanKinds(want.Trace); fmt.Sprint(got) != fmt.Sprint(alone) {
			t.Errorf("pass %d: spans %v, alone %v", i, got, alone)
		}
		sum = addStats(sum, res.PerDevice)
	}
	for r, p := range c.peers {
		if got := p.Stats(); got != sum[r] {
			t.Errorf("rank %d: mesh counters %+v, the two passes' sum %+v", r, got, sum[r])
		}
	}
}

// TestFaultInTheSecondOverlappedPass: rank 2, the last slice, receives five
// times in a pass — the frame, two partitions at the gather, two at the
// Gather — and dies at its seventh receive: the first of its gather in the
// second of two passes on the mesh at once. The first pass lands as it would
// have alone; the second parks, the round ends with rank 2 blamed, and it
// resolves once, on the survivors, with the row a healthy two-worker cluster
// gives.
func TestFaultInTheSecondOverlappedPass(t *testing.T) {
	opts := Options{MaxRetries: 2, OpTimeout: time.Second}
	c, pends := overlapped(t, opts, func(rank int, p comm.Peer) comm.Peer {
		if rank == 2 {
			return &comm.FlakyPeer{Inner: p, FailRecvAfter: 7}
		}
		return p
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]*Result, len(pends))
	for i, pend := range pends {
		res, err := pend.Wait(ctx)
		if err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		results[i] = res
	}
	first, second := results[0], results[1]
	if first.Attempts != 1 || first.Degraded || !first.Output.Equal(soloTokens(t, 3, Options{}, overlapIDs[0]).Output) {
		t.Errorf("first pass: attempts %d degraded %v, or a row unlike a healthy run's; want it landed untouched", first.Attempts, first.Degraded)
	}
	if second.Attempts != 2 || !second.Degraded || fmt.Sprint(second.Live) != "[0 1]" {
		t.Errorf("second pass: attempts %d degraded %v live %v, want one retry on the survivors [0 1]", second.Attempts, second.Degraded, second.Live)
	}
	if !second.Output.Equal(soloTokens(t, 2, Options{}, overlapIDs[1]).Output) {
		t.Error("second pass: its row differs from a healthy two-worker cluster's")
	}
	if h := c.Health()[2]; h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
		t.Errorf("rank 2 health = %v (%v), want Unhealthy with ErrInjected", h.State, h.LastErr)
	}
	for r, h := range c.Health()[:2] {
		if h.Failures != 0 {
			t.Errorf("rank %d blamed %d times", r, h.Failures)
		}
	}
	snap := c.Metrics()
	if ok, bad := snap.Counter(`voltage_requests_total{outcome="ok"}`), snap.Counter(`voltage_requests_total{outcome="error"}`); ok != 2 || bad != 0 {
		t.Errorf("requests ok/error = %v/%v, want each pass resolved once", ok, bad)
	}
	recoveries := 0.0
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "voltage_batch_recoveries_total{") {
			recoveries += v
		}
	}
	if recoveries != 1 {
		t.Errorf("%v recoveries, want the one round that died", recoveries)
	}
}
