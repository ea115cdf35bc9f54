package harness

import (
	"context"
	"testing"
	"time"

	"voltage/internal/costmodel"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

func TestMeasureDeviceFlops(t *testing.T) {
	flops := MeasureDeviceFlops()
	// Sanity: between 10 MMAC/s and 1 TMAC/s on any machine this runs on.
	if flops < 1e7 || flops > 1e12 {
		t.Fatalf("implausible throughput %v MAC/s", flops)
	}
}

func TestBandwidthScale(t *testing.T) {
	if got := BandwidthScale(costmodel.EdgeCPU.FlopsPerSec); got != 1 {
		t.Fatalf("scale at paper speed = %v, want 1", got)
	}
	if got := BandwidthScale(costmodel.EdgeCPU.FlopsPerSec / 2); got != 0.5 {
		t.Fatalf("scale at half speed = %v, want 0.5", got)
	}
	if got := BandwidthScale(0); got != 1 {
		t.Fatalf("scale at 0 = %v, want fallback 1", got)
	}
}

func TestCalibratedProfile(t *testing.T) {
	p := netem.Profile{BandwidthMbps: 500, Latency: time.Millisecond}
	c := CalibratedProfile(p, costmodel.EdgeCPU.FlopsPerSec/10)
	if c.BandwidthMbps != 50 {
		t.Fatalf("calibrated bandwidth %v, want 50", c.BandwidthMbps)
	}
	if c.Latency != time.Millisecond {
		t.Fatal("latency should be preserved")
	}
}

// loadProof is the calibration the paced timing tests run at: a third of what
// Calibrate measures. Calibrate's rate is what the host sustained at that
// moment; when the rest of the suite then takes the cores, real matmul time
// overruns a budget cut that close and the latencies compare scheduling
// accidents. At a third the sleeps set every latency, whatever the load.
func loadProof(k int) Calibration {
	d := Calibrate(k).DeviceFlops / 3
	return Calibration{DeviceFlops: d, BwScale: BandwidthScale(d)}
}

// TestMeasuredShapeMatchesPaper is the repository's headline integration
// test: on BERT-Large-shaped layers over three emulated devices with
// calibrated bandwidth, the measured latencies must reproduce the paper's
// Fig. 4 ordering — Voltage beats single device, tensor parallelism does
// not.
func TestMeasuredShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration experiment")
	}
	if raceEnabled {
		t.Skip("pacing-based timing comparison unreliable under -race")
	}
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	// Both the compute:communication balance and the latency ratios are
	// independent of N and of the vocabulary, so a short input and a small
	// embedding table keep the test to seconds at the slowed rate; the full
	// K=6, N=200 run is `voltage-bench -experiment fig4 -mode measured`.
	const k, n = 3, 9
	cfg := model.BERTLarge().Scaled(2)
	cfg.VocabSize = 1000
	mesh, err := NewMesh(cfg, k, paperLink(500), loadProof(k), 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := embedWorkload(mesh.Model, n)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	single, err := mesh.voltage(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	voltage, err := mesh.voltage(ctx, k, x)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := mesh.TensorParallel(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("measured @K=%d calibrated 500Mbps: single=%v voltage=%v tp=%v", k, single.Latency, voltage.Latency, tp.Latency)
	if voltage.Latency >= single.Latency {
		t.Errorf("voltage (%v) did not beat single device (%v)", voltage.Latency, single.Latency)
	}
	if tp.Latency <= voltage.Latency {
		t.Errorf("tensor parallelism (%v) unexpectedly beat voltage (%v)", tp.Latency, voltage.Latency)
	}
}
