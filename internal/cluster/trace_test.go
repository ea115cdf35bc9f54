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
