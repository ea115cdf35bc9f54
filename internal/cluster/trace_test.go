package cluster

import (
	"context"
	"testing"

	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/trace"
)

// The breakdown experiment reads the per-rank profile: every worker rank
// must have recorded compute and communication time for one inference.
func requireWorkerBreakdown(t *testing.T, c *Cluster) {
	t.Helper()
	for _, r := range c.Profile().Ranks {
		if r.Terminal {
			continue
		}
		compute := r.Phases[trace.PhaseCompute.String()].TotalSeconds
		comm := r.Phases[trace.PhaseComm.String()].TotalSeconds
		if compute <= 0 || comm <= 0 {
			t.Fatalf("device %d breakdown incomplete: compute %vs comm %vs", r.Rank, compute, comm)
		}
	}
}

func TestProfileCapturesVoltageBreakdown(t *testing.T) {
	c, err := NewMem(model.Tiny().Scaled(4), 3, Options{
		Profile: netem.Profile{BandwidthMbps: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	x := embedTiny(t, c, 24)
	if _, err := c.Infer(context.Background(), StrategyVoltage, x); err != nil {
		t.Fatal(err)
	}
	requireWorkerBreakdown(t, c)
}

// TestFirstSliceOfACausalPassWaitsForNobody: on a decoder the rank holding
// slice 0 reads no other rank's rows, so its synchronisations are sends alone
// and return at once, while the last slice is sent K−1 partitions per layer
// over the shaped link.
func TestFirstSliceOfACausalPassWaitsForNobody(t *testing.T) {
	c, err := NewMem(model.TinyDecoder().Scaled(4), 3, Options{
		Profile: netem.Profile{BandwidthMbps: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 48)); err != nil {
		t.Fatal(err)
	}
	ranks := c.Profile().Ranks
	first := ranks[0].Phases[trace.PhaseComm.String()]
	last := ranks[2].Phases[trace.PhaseComm.String()]
	// A 16×32 partition is 2 KB: 8 ms on the link, twice per gather.
	if first.Samples != 3 || last.Samples != 3 || last.TotalSeconds < 4*8e-3 {
		t.Fatalf("rank 0 reported %d synchronisations, rank 2 %d taking %.4fs; want 3 each, rank 2's most of 6 partition times", first.Samples, last.Samples, last.TotalSeconds)
	}
	if first.TotalSeconds > last.TotalSeconds/10 {
		t.Errorf("slice 0 spent %.4fs in its synchronisations against the last slice's %.4fs: it should wait for nobody", first.TotalSeconds, last.TotalSeconds)
	}
}
