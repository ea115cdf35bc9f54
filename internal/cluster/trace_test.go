package cluster

import (
	"context"
	"testing"
	"time"

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

func TestProfileCapturesTPBreakdown(t *testing.T) {
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 12)
	if _, err := c.Infer(context.Background(), StrategyTensorParallel, x); err != nil {
		t.Fatal(err)
	}
	requireWorkerBreakdown(t, c)
}

func TestTPCommFractionExceedsVoltage(t *testing.T) {
	// The crux of the paper in one number: under the same bandwidth, TP
	// spends a larger fraction of its time communicating than Voltage.
	run := func(strategy Strategy) float64 {
		c, err := NewMem(model.Tiny().Scaled(4), 3, Options{
			Profile:     netem.Profile{BandwidthMbps: 20, Latency: 200 * time.Microsecond},
			DeviceFlops: 2e8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		x := embedTiny(t, c, 32)
		if _, err := c.Infer(context.Background(), strategy, x); err != nil {
			t.Fatal(err)
		}
		prof := c.Profile()
		compute := prof.WorkerPhaseMean(trace.PhaseCompute)
		comm := prof.WorkerPhaseMean(trace.PhaseComm)
		return comm / (compute + comm)
	}
	v := run(StrategyVoltage)
	tp := run(StrategyTensorParallel)
	if tp <= v {
		t.Fatalf("TP comm fraction %.2f not above Voltage %.2f", tp, v)
	}
	t.Logf("comm fraction @20Mbps: voltage=%.2f tensor-parallel=%.2f", v, tp)
}
