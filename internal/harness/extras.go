package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

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
// time of Voltage and tensor parallelism on a real run.
func BreakdownMeasured(ctx context.Context, cfg model.Config, k int, profile netem.Profile, cal Calibration, seed int64) ([]BreakdownRow, error) {
	var rows []BreakdownRow
	var outerErr error
	singleThreaded(func() {
		for _, strategy := range []cluster.Strategy{cluster.StrategyVoltage, cluster.StrategyTensorParallel} {
			c, err := cluster.NewMem(cfg, k, cluster.Options{
				Profile:     cal.Apply(profile),
				Seed:        seed,
				DeviceFlops: cal.DeviceFlops,
			})
			if err != nil {
				outerErr = err
				return
			}
			x, err := embedWorkload(c, seqLen(cfg))
			if err != nil {
				c.Close()
				outerErr = err
				return
			}
			res, err := c.Infer(ctx, strategy, x)
			c.Close()
			if err != nil {
				outerErr = fmt.Errorf("%v: %w", strategy, err)
				return
			}
			prof := c.Profile()
			row := BreakdownRow{
				Strategy:   strategy.String(),
				ComputeSec: prof.WorkerPhaseMean(trace.PhaseCompute),
				CommSec:    prof.WorkerPhaseMean(trace.PhaseComm),
				LatencySec: res.Latency.Seconds(),
			}
			if busy := row.ComputeSec + row.CommSec; busy > 0 {
				row.CommFraction = row.CommSec / busy
			}
			rows = append(rows, row)
		}
	})
	return rows, outerErr
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
	var rows []PipelineRow
	var outerErr error
	singleThreaded(func() {
		c, err := cluster.NewMem(cfg, k, cluster.Options{
			Profile:     cal.Apply(netem.Profile{BandwidthMbps: 500, Latency: 200 * time.Microsecond}),
			Seed:        seed,
			DeviceFlops: cal.DeviceFlops,
		})
		if err != nil {
			outerErr = err
			return
		}
		defer c.Close()
		x, err := embedWorkload(c, seqLen(cfg))
		if err != nil {
			outerErr = err
			return
		}
		single, err := c.Infer(ctx, cluster.StrategySingle, x)
		if err != nil {
			outerErr = err
			return
		}
		voltage, err := c.Infer(ctx, cluster.StrategyVoltage, x)
		if err != nil {
			outerErr = err
			return
		}
		for _, b := range batches {
			if b < 1 {
				continue
			}
			xs := make([]*tensor.Matrix, b)
			for i := range xs {
				xs[i] = x
			}
			res, err := c.InferPipeline(ctx, xs)
			if err != nil {
				outerErr = fmt.Errorf("batch %d: %w", b, err)
				return
			}
			rows = append(rows, PipelineRow{
				Batch:              b,
				PipelineFirstSec:   res.FirstLatency.Seconds(),
				PipelineThroughput: res.Throughput(),
				SingleSec:          single.Latency.Seconds(),
				VoltageSec:         voltage.Latency.Seconds(),
			})
		}
	})
	return rows, outerErr
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

// QuantizedCommMeasured sweeps bandwidths comparing exact vs quantized
// Voltage inference.
func QuantizedCommMeasured(ctx context.Context, cfg model.Config, k int, bandwidths []float64, cal Calibration, seed int64) ([]QuantRow, error) {
	var rows []QuantRow
	var outerErr error
	singleThreaded(func() {
		bwScale := cal.BwScale
		if cal.Zero() {
			bwScale = 1
		}
		for _, bw := range bandwidths {
			profile := netem.Profile{BandwidthMbps: bw * bwScale, Latency: 200 * time.Microsecond}
			var exact, quant *cluster.Result
			for _, quantized := range []bool{false, true} {
				c, err := cluster.NewMem(cfg, k, cluster.Options{
					Profile: profile, Seed: seed,
					DeviceFlops: cal.DeviceFlops, QuantizedComm: quantized,
				})
				if err != nil {
					outerErr = err
					return
				}
				x, err := embedWorkload(c, seqLen(cfg))
				if err != nil {
					c.Close()
					outerErr = err
					return
				}
				res, err := c.Infer(ctx, cluster.StrategyVoltage, x)
				c.Close()
				if err != nil {
					outerErr = fmt.Errorf("bw %v quantized=%v: %w", bw, quantized, err)
					return
				}
				if quantized {
					quant = res
				} else {
					exact = res
				}
			}
			dev, err := quant.Output.MaxAbsDiff(exact.Output)
			if err != nil {
				outerErr = err
				return
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
	})
	return rows, outerErr
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
