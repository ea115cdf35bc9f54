package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"voltage/internal/trace"
)

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(8, 4)
	const writers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Eventf("test", w, "writer %d event %d", w, i)
				f.RecordTrace(TraceRecord{ID: uint64(w*each + i), Kind: "t"})
				f.Dump() // concurrent reads while writing
			}
		}(w)
	}
	wg.Wait()
	d := f.Dump()
	if len(d.Events) != 8 {
		t.Fatalf("retained %d events, want ring cap 8", len(d.Events))
	}
	if d.EventsDropped != writers*each-8 {
		t.Errorf("events dropped %d, want %d", d.EventsDropped, writers*each-8)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq != d.Events[i-1].Seq+1 {
			t.Fatalf("event seqs not contiguous ascending: %d after %d",
				d.Events[i].Seq, d.Events[i-1].Seq)
		}
	}
	if d.Events[len(d.Events)-1].Seq != writers*each {
		t.Errorf("newest seq %d, want %d", d.Events[len(d.Events)-1].Seq, writers*each)
	}
	if len(d.Traces) != 4 || d.TracesDropped != writers*each-4 {
		t.Errorf("traces %d dropped %d, want 4 / %d", len(d.Traces), d.TracesDropped, writers*each-4)
	}

	var nilF *FlightRecorder
	nilF.Eventf("x", -1, "ignored")
	nilF.RecordTrace(TraceRecord{})
	if d := nilF.Dump(); len(d.Events) != 0 {
		t.Errorf("nil recorder dump has events")
	}
	if nilF.ShouldDump(time.Second) {
		t.Errorf("nil recorder wants dump")
	}
}

func TestShouldDumpCooldown(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	if !f.ShouldDump(time.Hour) {
		t.Fatalf("first ShouldDump refused")
	}
	if f.ShouldDump(time.Hour) {
		t.Fatalf("second ShouldDump inside cooldown allowed")
	}
	if !f.ShouldDump(0) {
		t.Fatalf("zero cooldown refused")
	}
}

func TestChromeTrace(t *testing.T) {
	start := time.Unix(1700000000, 0)
	recs := []TraceRecord{
		{ID: 1, Kind: "generate", Start: start, Latency: 10 * time.Millisecond, Spans: []trace.Span{
			{Rank: 0, Layer: 0, Phase: trace.PhaseCompute, Offset: 0, Dur: 2 * time.Millisecond},
			{Rank: 1, Layer: 0, Phase: trace.PhaseCompute, Offset: 0, Dur: 3 * time.Millisecond},
			{Rank: 2, Layer: -1, Phase: trace.PhaseBoundary, Offset: 3 * time.Millisecond, Dur: time.Millisecond},
		}},
		{ID: 2, Kind: "classify", Start: start.Add(5 * time.Millisecond), Err: "boom", Spans: []trace.Span{
			{Rank: 0, Layer: 1, Phase: trace.PhaseComm, Offset: time.Millisecond, Dur: time.Millisecond},
		}},
		{ID: 3, Kind: "spanless", Start: start}, // skipped
	}
	blob := ChromeTrace(recs, 2)
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  uint64         `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, blob)
	}
	var xEvents, metas int
	tids := map[int]bool{}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			tids[ev.TID] = true
			if ev.PID == 3 {
				t.Errorf("spanless record exported")
			}
		case "M":
			metas++
			if ev.Name == "thread_name" {
				threadNames[ev.Args["name"].(string)] = true
			}
		}
	}
	if xEvents != 4 {
		t.Errorf("%d X events, want 4", xEvents)
	}
	if !tids[0] || !tids[1] || !tids[2] {
		t.Errorf("tids %v, want ranks 0..2", tids)
	}
	if !threadNames["terminal"] || !threadNames["rank 0"] {
		t.Errorf("thread names %v, want terminal + rank 0", threadNames)
	}
	// Relative timing preserved: req 2's span starts 5ms+1ms after t0.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == 2 {
			if ev.TS != 6000 {
				t.Errorf("req 2 span ts %v µs, want 6000", ev.TS)
			}
		}
	}
	if ChromeTrace(nil, 0) == nil {
		t.Errorf("empty export should still be a JSON doc")
	}
}
