package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
)

// TestProfileSkewConvergesOnSlowRank is the tentpole acceptance check: one
// rank paced 4x slower than its peers must surface as per-round skew above
// the straggler threshold, flip the rank's persistent-straggler flag, and
// pull the per-rank fused-step and compute-phase EWMAs apart.
func TestProfileSkewConvergesOnSlowRank(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{
		// Rank 2 emulates a device 4x slower: each rank owns one sequence,
		// and per MAC of its own row the fused-step times are ~[1,1,4]x, so
		// per-round skew = max/mean = 4/2 = 2.0, above the 1.5 default.
		// Rates are low enough that the paced interval dominates the real
		// (wall-clock) matmul time, keeping the contrast deterministic.
		HeteroDeviceFlops: []float64{7.5e6, 7.5e6, 1.875e6},
		MaxBatch:          4,
		BatchWindow:       20 * time.Millisecond,
	})
	const steps = 24
	var wg sync.WaitGroup
	for _, p := range batchPrompts[:3] {
		wg.Add(1)
		go func(p []int) {
			defer wg.Done()
			if _, err := c.GenerateVoltage(context.Background(), p, steps); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()

	// Each rank owns one of the three sequences, so every round has three
	// owners and closes when the slow one reports — before the terminal can
	// move on. The poll only covers the store's bookkeeping.
	p := c.Profile()
	for deadline := time.Now().Add(10 * time.Second); p.Rounds < 15; p = c.Profile() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d fused rounds recorded, want >= 15", p.Rounds)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if p.K != 3 || len(p.Ranks) != 4 {
		t.Fatalf("profile K=%d ranks=%d, want 3/4", p.K, len(p.Ranks))
	}
	// The EWMA and the converged per-rank step estimates must both exceed
	// the threshold; the last round's instantaneous skew compresses as the
	// batch drains (width-1 rounds have little paced work), so it only gets
	// a sanity bound.
	if p.SkewEWMA <= 1.5 {
		t.Errorf("skew EWMA %.2f, want > 1.5 with a 4x-slow rank", p.SkewEWMA)
	}
	if p.Skew <= 1.0 {
		t.Errorf("last-round skew %.2f, want > 1.0", p.Skew)
	}
	if ss := p.StepSkew(); ss <= 1.5 {
		t.Errorf("StepSkew %.2f, want > 1.5", ss)
	}
	slow, fast := p.Ranks[2], p.Ranks[0]
	if !slow.Straggler {
		t.Errorf("rank 2 not flagged straggler after %d rounds: %+v", p.Rounds, slow)
	}
	if fast.Straggler || p.Ranks[1].Straggler {
		t.Errorf("fast ranks flagged straggler")
	}
	if slow.StepEWMASeconds < 2*fast.StepEWMASeconds {
		t.Errorf("step EWMA slow %.6fs vs fast %.6fs, want >= 2x apart",
			slow.StepEWMASeconds, fast.StepEWMASeconds)
	}
	sc, fc := slow.Phases["compute"], fast.Phases["compute"]
	if sc.Samples == 0 || fc.Samples == 0 {
		t.Fatalf("compute phase missing samples: slow %+v fast %+v", sc, fc)
	}
	if sc.EWMASeconds <= fc.EWMASeconds {
		t.Errorf("compute EWMA slow %.6fs <= fast %.6fs; profile did not converge on the slow rank",
			sc.EWMASeconds, fc.EWMASeconds)
	}
	// Skew mirrors into gauges for dashboards/alerts.
	snap := c.Metrics()
	if g := snap.Gauge("voltage_round_skew_ewma"); g <= 1.5 {
		t.Errorf("voltage_round_skew_ewma gauge %.2f, want > 1.5", g)
	}
	if g := snap.Gauge(`voltage_straggler{rank="2"}`); g != 1 {
		// Key format depends on the registry's label rendering; fall back to
		// checking the transition counter.
		if f := snap.Counter(`voltage_straggler_transitions_total{state="flagged"}`); f < 1 {
			t.Errorf("straggler gauge %v and flagged transitions %v; expected rank 2 flagged", g, f)
		}
	}
}

// TestChromeTraceCoversAllRanks is the second acceptance check: the
// exported Chrome trace of a MaxBatch>1 generate run must contain spans
// from every live rank (workers 0..2 plus the terminal).
func TestChromeTraceCoversAllRanks(t *testing.T) {
	c := newTinyDecoder(t, 3, Options{
		MaxBatch:      4,
		BatchWindow:   20 * time.Millisecond,
		TraceRequests: true,
	})
	const steps = 6
	var wg sync.WaitGroup
	for _, p := range batchPrompts[:2] {
		wg.Add(1)
		go func(p []int) {
			defer wg.Done()
			if _, err := c.GenerateVoltage(context.Background(), p, steps); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()

	// The batched-generate request retires (and lands in the flight
	// recorder) shortly after its last sequence leaves; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var doc struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				TID int    `json:"tid"`
			} `json:"traceEvents"`
		}
		blob := c.ChromeTrace()
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("ChromeTrace is not valid JSON: %v", err)
		}
		tids := map[int]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				tids[ev.TID] = true
			}
		}
		if tids[0] && tids[1] && tids[2] && tids[3] {
			return // every worker rank plus the terminal produced spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace spans cover tids %v, want ranks 0..2 + terminal 3\n%s", tids, blob)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFlightRecorderCapturesFailureAndDumps: a request that resolves with
// a fault must log a request_failed event and trigger exactly one
// automatic dump to Options.FlightSink within the cooldown window.
func TestFlightRecorderCapturesFailureAndDumps(t *testing.T) {
	var sink syncBuffer
	c := newTiny(t, 3, Options{
		FlightSink: &sink,
		WrapTransport: wrapRank(1, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, FailSendAfter: 1}
		}),
	})
	x := embedTiny(t, c, 6)
	if _, err := c.Infer(context.Background(), StrategyVoltage, x); err == nil {
		t.Fatal("expected injected failure")
	}
	d := c.FlightDump()
	var failed bool
	for _, ev := range d.Events {
		if ev.Kind == "request_failed" {
			failed = true
		}
	}
	if !failed {
		t.Errorf("no request_failed event in %d events", len(d.Events))
	}
	if d.Profile == nil {
		t.Errorf("dump missing profile")
	}
	if got := sink.String(); !strings.Contains(got, `"request_failed"`) {
		t.Errorf("FlightSink dump missing failure event:\n%s", got)
	}
	// Second failure inside the cooldown: no second dump.
	before := sink.Len()
	if _, err := c.Infer(context.Background(), StrategyVoltage, x); err == nil {
		t.Fatal("expected second injected failure")
	}
	if sink.Len() != before {
		t.Errorf("second dump written inside cooldown window")
	}
}

// TestDebugEndpointsOnAdmin: what voltage-server's gateway serves on
// /debug/flight and /debug/trace next to /metrics — FlightDump as JSON and the
// ChromeTrace export (server.TestDebugEndpointsAndShedEvents covers the HTTP side).
func TestDebugEndpointsOnAdmin(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{TraceRequests: true})
	c.Serve()
	if _, err := c.GenerateVoltage(context.Background(), []int{4, 8, 15}, 3); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(c.FlightDump())
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events  []struct{ Kind string } `json:"events"`
		Profile *struct{ K int }        `json:"profile"`
	}
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	if len(dump.Events) == 0 {
		t.Errorf("/debug/flight returned no events")
	}
	if dump.Profile == nil || dump.Profile.K != 2 {
		t.Errorf("/debug/flight profile %+v, want K=2", dump.Profile)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(c.ChromeTrace(), &doc); err != nil {
		t.Fatalf("/debug/trace: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Errorf("/debug/trace missing traceEvents array")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}
