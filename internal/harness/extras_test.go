package harness

import (
	"context"
	"strings"
	"testing"

	"voltage/internal/model"
	"voltage/internal/netem"
)

func TestBreakdownMeasuredTiny(t *testing.T) {
	rows, err := BreakdownMeasured(context.Background(), model.Tiny().Scaled(4), 3,
		netem.Profile{BandwidthMbps: 50}, Calibration{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var voltageFrac, tpFrac float64
	for _, r := range rows {
		if r.ComputeSec <= 0 || r.CommSec <= 0 || r.LatencySec <= 0 {
			t.Fatalf("incomplete row %+v", r)
		}
		switch r.Strategy {
		case "voltage":
			voltageFrac = r.CommFraction
		case "tensor-parallel":
			tpFrac = r.CommFraction
		}
	}
	if tpFrac <= voltageFrac {
		t.Fatalf("TP comm fraction %.2f not above voltage %.2f", tpFrac, voltageFrac)
	}
	var sb strings.Builder
	if err := BreakdownTable("b", rows).WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "comm-fraction") {
		t.Fatal("table header")
	}
}

func TestPipelineMeasuredTiny(t *testing.T) {
	// Paced an order of magnitude below the host's rate, so the stages'
	// sleeps — not host load — set the batch-1 : batch-4 throughput ratio
	// (1 : 1.6 on two stages).
	rows, err := PipelineMeasured(context.Background(), model.Tiny().Scaled(4), 2,
		[]int{1, 4}, Calibration{DeviceFlops: 5e7, BwScale: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].PipelineThroughput <= rows[0].PipelineThroughput {
		t.Fatalf("throughput did not grow with batch: %v vs %v",
			rows[0].PipelineThroughput, rows[1].PipelineThroughput)
	}
	var sb strings.Builder
	if err := PipelineTable("p", rows).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "batch,") {
		t.Fatal("csv header")
	}
}

func TestQuantizedCommMeasuredTiny(t *testing.T) {
	rows, err := QuantizedCommMeasured(context.Background(), model.Tiny().Scaled(2), 3,
		[]float64{20}, Calibration{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.QuantBytes >= r.ExactBytes {
		t.Fatalf("quantized bytes %d not below exact %d", r.QuantBytes, r.ExactBytes)
	}
	if r.MaxDeviation <= 0 || r.MaxDeviation > 1 {
		t.Fatalf("deviation %v implausible", r.MaxDeviation)
	}
	var sb strings.Builder
	if err := QuantTable("q", rows).WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "int8-bytes") {
		t.Fatal("table header")
	}
}
