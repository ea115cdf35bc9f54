package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"voltage/internal/trace"
)

func TestStorePhaseEstimates(t *testing.T) {
	s := NewStore(StoreOptions{K: 2})
	for i := 0; i < 20; i++ {
		s.RecordPhase(0, trace.PhaseCompute, 2*time.Millisecond)
		s.RecordPhase(1, trace.PhaseCompute, 8*time.Millisecond)
		s.RecordPhase(2, trace.PhaseBoundary, time.Millisecond)
	}
	s.RecordComm(0, 1000, 500)
	s.RecordComm(0, 24, 16)

	p := s.Profile()
	if p.K != 2 || len(p.Ranks) != 3 {
		t.Fatalf("K=%d ranks=%d, want 2/3", p.K, len(p.Ranks))
	}
	c0 := p.Ranks[0].Phases["compute"]
	c1 := p.Ranks[1].Phases["compute"]
	if c0.Samples != 20 || c1.Samples != 20 {
		t.Fatalf("samples %d/%d, want 20/20", c0.Samples, c1.Samples)
	}
	if got, want := c0.EWMASeconds, 0.002; got < want*0.99 || got > want*1.01 {
		t.Errorf("rank0 compute EWMA %g, want ~%g", got, want)
	}
	if c1.EWMASeconds < 3.9*c0.EWMASeconds {
		t.Errorf("rank1 EWMA %g not ~4x rank0 %g", c1.EWMASeconds, c0.EWMASeconds)
	}
	if !p.Ranks[2].Terminal {
		t.Errorf("rank 2 should be terminal")
	}
	// Worker means: (20·2 ms + 20·8 ms) ÷ 2 workers; the terminal's
	// boundary time belongs to no worker.
	if got := p.WorkerPhaseMean(trace.PhaseCompute); got < 0.0999 || got > 0.1001 {
		t.Errorf("worker compute mean %g s, want 0.1", got)
	}
	if got := p.WorkerPhaseMean(trace.PhaseBoundary); got != 0 {
		t.Errorf("worker boundary mean %g s, want 0 (only the terminal recorded it)", got)
	}
	if p.Ranks[0].BytesSent != 1024 || p.Ranks[0].BytesRecv != 516 {
		t.Errorf("comm bytes %d/%d, want 1024/516", p.Ranks[0].BytesSent, p.Ranks[0].BytesRecv)
	}
	// Ignored inputs must not panic or corrupt state.
	s.RecordPhase(-1, trace.PhaseCompute, time.Millisecond)
	s.RecordPhase(9, trace.PhaseCompute, time.Millisecond)
	s.RecordPhase(0, trace.Phase(99), time.Millisecond)
	s.RecordComm(99, 1, 1)
	var nilStore *Store
	nilStore.RecordPhase(0, trace.PhaseCompute, time.Millisecond)
	_ = nilStore.Profile()
}

func TestRecordRoundSkewAndStraggler(t *testing.T) {
	var mu sync.Mutex
	var flips []string
	s := NewStore(StoreOptions{
		K: 3, SkewThreshold: 1.5, StragglerRounds: 3,
		OnStraggler: func(rank int, flagged bool) {
			mu.Lock()
			flips = append(flips, fmt.Sprintf("%d:%v", rank, flagged))
			mu.Unlock()
		},
	})
	// Rank 2 runs 4x slower: times [1,1,4] ms → mean 2 ms, skew 2.0.
	round := uint64(0)
	slowRound := func() {
		round++
		s.RecordRound(round, 0, 3, time.Millisecond, 1000)
		s.RecordRound(round, 1, 3, time.Millisecond, 1000)
		s.RecordRound(round, 2, 3, 4*time.Millisecond, 1000)
	}
	evenRound := func() {
		round++
		for r := 0; r < 3; r++ {
			s.RecordRound(round, r, 3, time.Millisecond, 1000)
		}
	}
	slowRound()
	slowRound()
	if p := s.Profile(); p.Rounds != 2 || p.Skew < 1.99 || p.Skew > 2.01 {
		t.Fatalf("rounds=%d skew=%g, want 2 rounds skew ~2.0", p.Rounds, p.Skew)
	}
	if s.Profile().Ranks[2].Straggler {
		t.Fatalf("straggler flagged after 2 rounds, want >= 3")
	}
	slowRound()
	p := s.Profile()
	if !p.Ranks[2].Straggler {
		t.Fatalf("rank 2 not flagged after 3 slow rounds: %+v", p.Ranks[2])
	}
	if p.Ranks[0].Straggler || p.Ranks[1].Straggler {
		t.Fatalf("fast ranks flagged")
	}
	if ss := p.StepSkew(); ss < 1.9 || ss > 2.1 {
		t.Errorf("StepSkew %g, want ~2.0", ss)
	}
	// Recovery: the flag clears only after StragglerRounds clean rounds.
	evenRound()
	evenRound()
	if !s.Profile().Ranks[2].Straggler {
		t.Fatalf("flag cleared after 2 clean rounds, want hysteresis of 3")
	}
	evenRound()
	if s.Profile().Ranks[2].Straggler {
		t.Fatalf("flag not cleared after 3 clean rounds")
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"2:true", "2:false"}; fmt.Sprint(flips) != fmt.Sprint(want) {
		t.Errorf("straggler flips %v, want %v", flips, want)
	}
}

// TestRecordRoundNormalisesUnequalShares: owners advance different numbers
// of sequences, so raw step times differ without any rank being slow. Four
// sequences over three ranks (2·1·1 rows) take [2,1,1] ms on equal devices —
// raw max/mean 1.5, which the threshold would flag — but per unit of work
// the round is even. A rank that is 4x slow on a single row still stands out
// although its raw time only matches the two-row rank's doubled.
func TestRecordRoundNormalisesUnequalShares(t *testing.T) {
	const row = 1000 // work units per owned row
	s := NewStore(StoreOptions{K: 3, SkewThreshold: 1.5, StragglerRounds: 3})
	for round := uint64(1); round <= 6; round++ {
		s.RecordRound(round, 0, 3, 2*time.Millisecond, 2*row)
		s.RecordRound(round, 1, 3, time.Millisecond, row)
		s.RecordRound(round, 2, 3, time.Millisecond, row)
	}
	p := s.Profile()
	if p.Rounds != 6 || p.Skew > 1.01 || p.SkewEWMA > 1.01 {
		t.Fatalf("even devices, 2·1·1 rows: rounds=%d skew=%g ewma=%g, want skew 1.0", p.Rounds, p.Skew, p.SkewEWMA)
	}
	for _, r := range p.Ranks {
		if r.Straggler {
			t.Fatalf("rank %d flagged on an even round", r.Rank)
		}
	}
	if ss := p.StepSkew(); ss > 1.01 {
		t.Errorf("StepSkew %g, want 1.0", ss)
	}
	for round := uint64(7); round <= 12; round++ {
		s.RecordRound(round, 0, 3, 2*time.Millisecond, 2*row)
		s.RecordRound(round, 1, 3, time.Millisecond, row)
		s.RecordRound(round, 2, 3, 4*time.Millisecond, row) // 4x slow on one row
	}
	p = s.Profile()
	if p.Skew < 1.99 || !p.Ranks[2].Straggler || p.Ranks[0].Straggler || p.Ranks[1].Straggler {
		t.Fatalf("4x-slow rank 2: skew=%g flags=%v/%v/%v, want skew 2.0 and only rank 2 flagged",
			p.Skew, p.Ranks[0].Straggler, p.Ranks[1].Straggler, p.Ranks[2].Straggler)
	}
	// Rounds only two ranks take part in close on those two reports.
	s.RecordRound(13, 0, 2, time.Millisecond, row)
	s.RecordRound(13, 1, 2, time.Millisecond, row)
	if got := s.Profile().Rounds; got != 13 {
		t.Fatalf("rounds=%d, want 13 (a two-owner round closes at two reports)", got)
	}
	// A report without work carries no rate and is dropped.
	s.RecordRound(14, 0, 1, time.Millisecond, 0)
	if got := s.Profile().Rounds; got != 13 {
		t.Fatalf("rounds=%d after a zero-work report, want 13", got)
	}
}

// TestRecordRoundLearnsFixedStepCost: a step costs a constant on top of its
// rows, so on equal devices a one-row rank reads slower per unit of work than
// a two-row rank. While ownership stands still (2·1·1 throughout) nothing
// separates the constant from the device, and the store compares d/work; once
// sequences come and go and each rank has owned one row and two, it reads the
// constant off the ranks' lines and the comparison turns even — with a rank
// that really is 4x slow, rows and constant alike, still standing out.
func TestRecordRoundLearnsFixedStepCost(t *testing.T) {
	const (
		row   = 1000             // work units per owned row
		unit  = time.Microsecond // equal devices: time per work unit
		fixed = 300 * unit       // per step, whatever the rows
	)
	s := NewStore(StoreOptions{K: 3, SkewThreshold: 1.5, StragglerRounds: 3})
	round := uint64(0)
	// play runs one round with the given rows per rank; slow multiplies rank
	// 2's time. Step times wobble ±3 % on a fixed pattern.
	play := func(rows [3]int, slow int) {
		round++
		for r, n := range rows {
			d := fixed + time.Duration(n*row)*unit
			d += d * time.Duration(int(round+uint64(r))%7-3) / 100
			if r == 2 {
				d *= time.Duration(slow)
			}
			s.RecordRound(round, r, 3, d, int64(n*row))
		}
	}
	spread := func() float64 {
		p := s.Profile()
		lo, hi := p.Ranks[0].StepEWMASeconds, p.Ranks[0].StepEWMASeconds
		for _, r := range p.Ranks[1:3] {
			lo, hi = min(lo, r.StepEWMASeconds), max(hi, r.StepEWMASeconds)
		}
		return hi / lo
	}
	for i := 0; i < 40; i++ {
		play([3]int{2, 1, 1}, 1)
	}
	if p := s.Profile(); p.StepFixedWork != 0 {
		t.Fatalf("fixed work %g read off ranks whose work never varied", p.StepFixedWork)
	}
	if got := spread(); got < 1.08 || got > 1.2 {
		t.Fatalf("static 2·1·1 with a fixed cost: per-unit spread %.3f, want the uncorrected ~1.13", got)
	}
	// Ownership rotates: every rank owns two rows for a while, one otherwise.
	for i := 0; i < 120; i++ {
		rows := [3]int{1, 1, 1}
		rows[i/8%3] = 2
		play(rows, 1)
	}
	p := s.Profile()
	if want := float64(fixed / unit); p.StepFixedWork < 0.8*want || p.StepFixedWork > 1.2*want {
		t.Fatalf("fixed work %.0f units, want ~%.0f", p.StepFixedWork, want)
	}
	for i := 0; i < 12; i++ {
		play([3]int{2, 1, 1}, 1)
	}
	p = s.Profile()
	if got := spread(); got > 1.05 || p.SkewEWMA > 1.05 {
		t.Fatalf("2·1·1 on equal devices after learning the fixed cost: per-unit spread %.3f, skew EWMA %.3f, want ~1.0", got, p.SkewEWMA)
	}
	for _, r := range p.Ranks {
		if r.Straggler {
			t.Fatalf("rank %d flagged on equal devices", r.Rank)
		}
	}
	for i := 0; i < 6; i++ {
		play([3]int{2, 1, 1}, 4)
	}
	p = s.Profile()
	if p.Skew < 1.9 || !p.Ranks[2].Straggler || p.Ranks[0].Straggler || p.Ranks[1].Straggler {
		t.Fatalf("4x-slow rank 2: skew=%g flags=%v/%v/%v, want ~2.0 and only rank 2 flagged",
			p.Skew, p.Ranks[0].Straggler, p.Ranks[1].Straggler, p.Ranks[2].Straggler)
	}
}

func TestRecordRoundPartialEviction(t *testing.T) {
	s := NewStore(StoreOptions{K: 2})
	// Open far more partial rounds than the store retains; none finalize.
	for r := uint64(1); r <= 3*maxPartialRounds; r++ {
		s.RecordRound(r, 0, 3, time.Millisecond, 1000)
	}
	if p := s.Profile(); p.Rounds != 0 {
		t.Fatalf("rounds=%d, want 0 (no round fully reported)", p.Rounds)
	}
	// A fresh round still finalizes normally after the churn.
	id := uint64(10_000)
	s.RecordRound(id, 0, 3, time.Millisecond, 1000)
	s.RecordRound(id, 1, 3, time.Millisecond, 1000)
	s.RecordRound(id, 2, 3, time.Millisecond, 1000)
	if p := s.Profile(); p.Rounds != 1 {
		t.Fatalf("rounds=%d after complete round, want 1", p.Rounds)
	}
}

// TestRecordRoundShrinkingLiveSet: a rank dying mid-round lowers the live
// count; the round must finalize with the smaller set instead of waiting
// forever for a report that will never come.
func TestRecordRoundShrinkingLiveSet(t *testing.T) {
	s := NewStore(StoreOptions{K: 2})
	s.RecordRound(7, 0, 3, time.Millisecond, 1000)
	s.RecordRound(7, 1, 2, time.Millisecond, 1000) // rank 2 died; live is now 2
	if p := s.Profile(); p.Rounds != 1 {
		t.Fatalf("rounds=%d, want 1 (round should close at live=2)", p.Rounds)
	}
}

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
