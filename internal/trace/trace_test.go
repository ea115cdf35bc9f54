package trace

import (
	"sync"
	"testing"
	"time"
)

func TestRequestTraceSpans(t *testing.T) {
	tr := NewRequestTrace()
	tr.SetID(42)
	tr.Add(0, 0, PhaseCompute, 2*time.Millisecond)
	tr.Add(1, 0, PhaseCompute, 3*time.Millisecond)
	tr.Add(0, 0, PhaseComm, time.Millisecond)
	tr.Add(2, -1, PhaseBoundary, 4*time.Millisecond)
	tr.Add(0, 1, PhaseCompute, -time.Millisecond) // dropped

	if tr.ID() != 42 {
		t.Fatalf("ID = %d", tr.ID())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[3].Layer != -1 || spans[3].Phase != PhaseBoundary || spans[3].Rank != 2 {
		t.Fatalf("boundary span %+v", spans[3])
	}
	totals := tr.PhaseTotals()
	if totals[PhaseCompute] != 5*time.Millisecond || totals[PhaseComm] != time.Millisecond ||
		totals[PhaseBoundary] != 4*time.Millisecond {
		t.Fatalf("totals %v", totals)
	}

	// Nil traces are recordable no-ops, so untraced requests need no call-
	// site guards.
	var nt *RequestTrace
	nt.Add(0, 0, PhaseCompute, time.Second)
	nt.SetID(1)
	if nt.Spans() != nil || nt.ID() != 0 || len(nt.PhaseTotals()) != 0 {
		t.Fatal("nil trace must read empty")
	}
}

func TestRequestTraceConcurrentAdd(t *testing.T) {
	tr := NewRequestTrace()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for l := 0; l < 25; l++ {
				tr.Add(rank, l, PhaseCompute, time.Microsecond)
			}
		}(r)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 100 {
		t.Fatalf("%d spans, want 100", got)
	}
}

// TestRequestTraceConcurrentReadersAndWriters exercises every RequestTrace
// method racing against the others — the flight recorder snapshots traces
// (Spans) while worker goroutines are still appending to them. Run under
// -race this is the memory-safety proof for that pattern.
func TestRequestTraceConcurrentReadersAndWriters(t *testing.T) {
	tr := NewRequestTrace()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for l := 0; l < 50; l++ {
				tr.Add(rank, l, PhaseCompute, time.Microsecond)
				tr.AddAt(rank, l, PhaseComm, time.Duration(l)*time.Microsecond, time.Microsecond)
			}
		}(r)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				spans := tr.Spans()
				for _, sp := range spans {
					if sp.Dur != time.Microsecond {
						t.Errorf("snapshot observed torn span: %+v", sp)
						return
					}
				}
				tr.SetID(uint64(i*100 + j))
				_ = tr.ID()
				_ = tr.PhaseTotals()
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 300 {
		t.Fatalf("%d spans, want 300", got)
	}
	// Snapshots must be isolated copies: mutating one does not corrupt the
	// trace other readers see.
	snap := tr.Spans()
	snap[0].Dur = time.Hour
	if tr.Spans()[0].Dur == time.Hour {
		t.Fatal("Spans returned a live reference, not a copy")
	}

	// Nil traces swallow every call (the tracing-disabled path).
	var nilTr *RequestTrace
	nilTr.Add(0, 0, PhaseCompute, time.Microsecond)
	nilTr.AddAt(0, 0, PhaseComm, 0, time.Microsecond)
	nilTr.SetID(7)
	if nilTr.Spans() != nil || nilTr.ID() != 0 {
		t.Fatal("nil RequestTrace not inert")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseCompute.String() != "compute" || PhaseComm.String() != "comm" || PhaseBoundary.String() != "boundary" {
		t.Fatal("phase names")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Fatal("unknown phase")
	}
}
