package harness

import (
	"context"
	"fmt"
	"strconv"

	"voltage/internal/cluster"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// This file implements the extension experiments beyond the paper's own
// figures: the compute/communication breakdown, the pipeline-parallelism
// batch study, and the quantized-communication ablation. See DESIGN.md §4.

// ---------------------------------------------------------------------------
// Breakdown — where the time goes, per strategy.

// BreakdownRow is one strategy's measured compute/comm split.
type BreakdownRow struct {
	Strategy     string
	ComputeSec   float64
	CommSec      float64
	CommFraction float64
	LatencySec   float64
}

// BreakdownMeasured measures the per-device mean compute and communication
// time of Voltage (the serving cluster's request trace) and tensor
// parallelism (the one-shot mesh) on a real run.
func BreakdownMeasured(ctx context.Context, cfg model.Config, k int, profile netem.Profile, cal Calibration, seed int64) ([]BreakdownRow, error) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	mesh, x, err := subject(cfg, k, profile, cal, seed)
	if err != nil {
		return nil, err
	}
	c, err := mesh.system(k, true)
	if err != nil {
		return nil, err
	}
	v, err := c.Infer(ctx, cluster.StrategyVoltage, x)
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("voltage: %w", err)
	}
	tp, err := mesh.TensorParallel(ctx, x)
	if err != nil {
		return nil, fmt.Errorf("tensor-parallel: %w", err)
	}
	// Only workers record compute and comm spans.
	phases := v.Trace.PhaseTotals()
	rows := []BreakdownRow{{
		Strategy:   cluster.StrategyVoltage.String(),
		ComputeSec: phases[trace.PhaseCompute].Seconds() / float64(k),
		CommSec:    phases[trace.PhaseComm].Seconds() / float64(k),
		LatencySec: v.Latency.Seconds(),
	}, {
		Strategy:   cluster.StrategyTensorParallel.String(),
		ComputeSec: tp.Compute.Seconds() / float64(k),
		CommSec:    tp.Comm.Seconds() / float64(k),
		LatencySec: tp.Latency.Seconds(),
	}}
	for i := range rows {
		if busy := rows[i].ComputeSec + rows[i].CommSec; busy > 0 {
			rows[i].CommFraction = rows[i].CommSec / busy
		}
	}
	return rows, nil
}

// BreakdownTable formats breakdown rows.
func BreakdownTable(title string, rows []BreakdownRow) Table {
	t := Table{Title: title, Header: []string{"strategy", "compute(s)", "comm(s)", "comm-fraction", "latency(s)"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Strategy, f3(r.ComputeSec), f3(r.CommSec), f2(r.CommFraction), f3(r.LatencySec),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Pipeline — throughput vs individual latency across batch sizes.

// PipelineRow is one batch size's pipeline measurement next to the
// Voltage/single references.
type PipelineRow struct {
	Batch              int
	PipelineFirstSec   float64 // first-request latency
	PipelineThroughput float64 // requests/second over the makespan
	SingleSec          float64
	VoltageSec         float64
}

// PipelineMeasured quantifies the paper's §V-C argument: pipeline
// parallelism never improves an individual request's latency (batch 1) but
// its throughput grows with the batch, while Voltage improves latency at
// batch 1 directly.
func PipelineMeasured(ctx context.Context, cfg model.Config, k int, batches []int, cal Calibration, seed int64) ([]PipelineRow, error) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	mesh, x, err := subject(cfg, k, paperLink(500), cal, seed)
	if err != nil {
		return nil, err
	}
	single, err := mesh.voltage(ctx, 1, x)
	if err != nil {
		return nil, err
	}
	voltage, err := mesh.voltage(ctx, k, x)
	if err != nil {
		return nil, err
	}
	var rows []PipelineRow
	for _, b := range batches {
		if b < 1 {
			continue
		}
		xs := make([]*tensor.Matrix, b)
		for i := range xs {
			xs[i] = x
		}
		res, err := mesh.Pipeline(ctx, xs)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		rows = append(rows, PipelineRow{
			Batch:              b,
			PipelineFirstSec:   res.FirstLatency.Seconds(),
			PipelineThroughput: res.Throughput(),
			SingleSec:          single.Latency.Seconds(),
			VoltageSec:         voltage.Latency.Seconds(),
		})
	}
	return rows, nil
}

// PipelineTable formats pipeline rows.
func PipelineTable(title string, rows []PipelineRow) Table {
	t := Table{Title: title, Header: []string{
		"batch", "pipeline-first(s)", "pipeline-throughput(req/s)", "single(s)", "voltage(s)",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.Batch), f3(r.PipelineFirstSec), f2(r.PipelineThroughput),
			f3(r.SingleSec), f3(r.VoltageSec),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Quantized communication — the future-work ablation.

// QuantRow compares exact and int8-quantized All-Gathers at one bandwidth.
type QuantRow struct {
	BandwidthMbps float64
	ExactSec      float64
	QuantSec      float64
	ExactBytes    int64
	QuantBytes    int64
	MaxDeviation  float64 // max abs difference of the final hidden states
}

// QuantizedCommMeasured sweeps bandwidths comparing exact vs int8
// All-Gathers, both on the one-shot mesh so the gather is all that differs.
func QuantizedCommMeasured(ctx context.Context, cfg model.Config, k int, bandwidths []float64, cal Calibration, seed int64) ([]QuantRow, error) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	mesh, x, err := subject(cfg, k, netem.Profile{}, cal, seed)
	if err != nil {
		return nil, err
	}
	var rows []QuantRow
	for _, bw := range bandwidths {
		mesh.Profile = paperLink(bw)
		exact, err := mesh.positionwise(ctx, x, nil)
		if err != nil {
			return nil, fmt.Errorf("bw %v exact: %w", bw, err)
		}
		quant, err := mesh.Quantized(ctx, x)
		if err != nil {
			return nil, fmt.Errorf("bw %v int8: %w", bw, err)
		}
		dev, err := quant.Output.MaxAbsDiff(exact.Output)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantRow{
			BandwidthMbps: bw,
			ExactSec:      exact.Latency.Seconds(),
			QuantSec:      quant.Latency.Seconds(),
			ExactBytes:    exact.TotalBytesSent(),
			QuantBytes:    quant.TotalBytesSent(),
			MaxDeviation:  dev,
		})
	}
	return rows, nil
}

// QuantTable formats quantization rows.
func QuantTable(title string, rows []QuantRow) Table {
	t := Table{Title: title, Header: []string{
		"bandwidth(Mbps)", "exact(s)", "int8(s)", "exact-bytes", "int8-bytes", "max-deviation",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			strconv.FormatFloat(r.BandwidthMbps, 'f', 0, 64),
			f3(r.ExactSec), f3(r.QuantSec),
			strconv.FormatInt(r.ExactBytes, 10), strconv.FormatInt(r.QuantBytes, 10),
			strconv.FormatFloat(r.MaxDeviation, 'f', 4, 64),
		})
	}
	return t
}
