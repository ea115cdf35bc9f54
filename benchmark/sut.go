package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"voltage"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/tensor"
)

// The system under test is fixed: one model, one cluster shape, two device
// profiles. Changing any constant here starts a new baseline.
const (
	sutK           = 3
	sutSeed        = 1
	sutMaxBatch    = 8
	sutBatchWindow = 2 * time.Millisecond
	sutGateWorkers = 8
)

// benchModel is large enough that matmuls dominate goroutine overhead
// (Tiny's F=32 does not) and small enough that a request takes tens of
// milliseconds on one core (BERT/GPT-2 take minutes).
func benchModel() model.Config {
	return model.Config{
		Name: "bench-decoder", Kind: model.KindDecoder,
		Layers: 4, F: 128, Heads: 4, FFN: 512, Act: tensor.GELU,
		VocabSize: 1000, MaxSeq: 256, NumClasses: 2,
	}
}

// deviceProfile is one emulated hardware setting. Numbers taken under
// different profiles are different quantities and are never compared.
type deviceProfile struct {
	Name        string
	DeviceFlops float64
	Net         netem.Profile
}

var (
	// edgeProfile is the paper's regime: slow devices behind slow links.
	// Constants, not harness.Calibrate: at F=128 they give about the
	// compute:All-Gather ratio of BERT-Large at 500 Mbps, and leave this
	// host mostly idle so that sleeps, not the Go scheduler, set the time.
	edgeProfile = deviceProfile{"edge", 4e8, netem.Profile{BandwidthMbps: 50, Latency: 200 * time.Microsecond}}
	// hostProfile turns pacing off: real nanoseconds and allocations.
	hostProfile = deviceProfile{"host", 0, netem.Unlimited}
)

// sut is one booted engine + gateway, driven through its handler.
type sut struct {
	eng *voltage.Engine
	gw  *voltage.GatewayServer
	h   http.Handler
}

// newSUT boots the system under test over k devices. A non-nil tracer
// installs the boundary decorators (transport and backend); the handler
// span is recorded by the load generator.
func newSUT(p deviceProfile, k int, tr *tracer) (*sut, error) {
	opts := voltage.ClusterOptions{
		Profile:     p.Net,
		DeviceFlops: p.DeviceFlops,
		Seed:        sutSeed,
		MaxBatch:    sutMaxBatch,
		BatchWindow: sutBatchWindow,
	}
	if tr != nil {
		opts.WrapTransport = tr.wrapTransport
	}
	eng, err := voltage.NewEngine(benchModel(), k, opts)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	var backend voltage.GatewayBackend = eng
	if tr != nil {
		backend = &tracedBackend{Engine: eng, tr: tr}
	}
	gw, err := voltage.NewGateway(backend, voltage.GatewayOptions{
		Sched: voltage.SchedulerOptions{Workers: sutGateWorkers},
	})
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return &sut{eng: eng, gw: gw, h: gw.Handler()}, nil
}

func (s *sut) close() {
	s.gw.Close()
	s.eng.Close()
}

// probe serves one short classify so that set-up time includes whatever
// the system defers to its first request.
func (s *sut) probe() error {
	body := []byte(`{"tokens":[1,2,3,4,5,6,7,8]}`)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/classify", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := newRecorder(0)
	s.h.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return fmt.Errorf("probe: status %d: %s", rec.status, rec.body.Bytes())
	}
	return nil
}

// timedSetup builds the system and the plan reps times and returns the
// last build with the median wall time of one build. Set-up is plan
// construction, engine and gateway boot, and the first response.
func timedSetup(w *workload, seed int64, k int, tr *tracer, reps int) (*sut, *plan, float64, error) {
	var (
		s     *sut
		pl    *plan
		times []float64
	)
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		pl = buildPlan(w, seed)
		var err error
		if s, err = newSUT(w.Profile, k, tr); err != nil {
			return nil, nil, 0, err
		}
		if err := s.probe(); err != nil {
			s.close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, pl, median(times), nil
}
