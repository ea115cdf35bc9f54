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
		Events []struct{ Kind string } `json:"events"`
	}
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	if len(dump.Events) == 0 {
		t.Errorf("/debug/flight returned no events")
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
