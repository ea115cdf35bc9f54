package cluster

import (
	"context"
	"testing"
	"time"

	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/trace"
)

// phaseSpans counts rank's spans of phase in tr and sums their time.
func phaseSpans(tr *trace.RequestTrace, rank int, phase trace.Phase) (n int, total time.Duration) {
	for _, s := range tr.Spans() {
		if s.Rank == rank && s.Phase == phase {
			n++
			total += s.Dur
		}
	}
	return n, total
}

// The breakdown experiment reads the request trace: every worker rank must
// have recorded compute and communication time for one inference.
func requireWorkerBreakdown(t *testing.T, tr *trace.RequestTrace, k int) {
	t.Helper()
	for r := 0; r < k; r++ {
		_, compute := phaseSpans(tr, r, trace.PhaseCompute)
		_, comm := phaseSpans(tr, r, trace.PhaseComm)
		if compute <= 0 || comm <= 0 {
			t.Fatalf("device %d breakdown incomplete: compute %v comm %v", r, compute, comm)
		}
	}
}

func TestProfileCapturesVoltageBreakdown(t *testing.T) {
	c, err := NewMem(model.Tiny().Scaled(4), 3, Options{
		Profile:       netem.Profile{BandwidthMbps: 100},
		TraceRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	x := embedTiny(t, c, 24)
	res, err := c.Infer(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	requireWorkerBreakdown(t, res.Trace, 3)
}

// TestFirstSliceOfACausalPassWaitsForNobody: on a decoder the rank holding
// slice 0 reads no other rank's rows, so its synchronisations are sends alone
// and return at once, while the last slice is sent K−1 partitions per layer
// over the shaped link.
func TestFirstSliceOfACausalPassWaitsForNobody(t *testing.T) {
	c, err := NewMem(model.TinyDecoder().Scaled(4), 3, Options{
		Profile:       netem.Profile{BandwidthMbps: 2},
		TraceRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 48))
	if err != nil {
		t.Fatal(err)
	}
	firstN, first := phaseSpans(res.Trace, 0, trace.PhaseComm)
	lastN, last := phaseSpans(res.Trace, 2, trace.PhaseComm)
	// A 16×32 partition is 2 KB: 8 ms on the link, twice per gather.
	if firstN != 3 || lastN != 3 || last < 4*8*time.Millisecond {
		t.Fatalf("rank 0 reported %d synchronisations, rank 2 %d taking %v; want 3 each, rank 2's most of 6 partition times", firstN, lastN, last)
	}
	if first > last/10 {
		t.Errorf("slice 0 spent %v in its synchronisations against the last slice's %v: it should wait for nobody", first, last)
	}
}
