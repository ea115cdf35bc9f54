package trace

import (
	"sync"
	"time"
)

// Per-request tracing. The phase counters (voltage_phase_seconds_total)
// aggregate phase time across the life of a cluster; a RequestTrace records
// the individual per-device, per-layer spans of one request, so an operator
// can see where a single slow request spent its time (which layer, which
// device, compute or comm) instead of only the lifetime aggregate. The
// serving runtime attaches one to each request when Options.TraceRequests is
// set and surfaces it on Result.Trace.

// Span is one timed step of one request on one device.
type Span struct {
	// Rank is the device that did the work; by the cluster's convention the
	// terminal device is rank K.
	Rank int
	// Layer is the transformer layer index, or -1 for boundary work (input
	// distribution, output collection) that belongs to no layer.
	Layer int
	// Phase classifies the work.
	Phase Phase
	// Offset is when the span began, relative to the trace's creation.
	Offset time.Duration
	// Dur is how long the span took.
	Dur time.Duration
}

// RequestTrace collects the spans of one request. All methods are safe for
// concurrent use (worker goroutines append in parallel) and nil-safe, so
// untraced requests cost one branch per span site.
type RequestTrace struct {
	start time.Time

	mu    sync.Mutex
	id    uint64
	spans []Span
}

// NewRequestTrace returns an empty trace anchored at now.
func NewRequestTrace() *RequestTrace {
	return &RequestTrace{start: time.Now()}
}

// SetID stamps the trace with the request's admission id (known only after
// admission).
func (t *RequestTrace) SetID(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.id = id
}

// ID returns the request's admission id.
func (t *RequestTrace) ID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Add records one span that ended now and took d. Layer -1 marks boundary
// work. Negative durations are dropped.
func (t *RequestTrace) Add(rank, layer int, phase Phase, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	offset := time.Since(t.start) - d
	if offset < 0 {
		offset = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Rank: rank, Layer: layer, Phase: phase, Offset: offset, Dur: d})
}

// AddAt records one span with an explicit offset from the trace's start —
// for work that happened before the trace was created, like the gateway's
// queue wait, where Add's ended-now arithmetic would misplace it. Negative
// offsets clamp to zero (the span simply leads the trace); negative
// durations are dropped.
func (t *RequestTrace) AddAt(rank, layer int, phase Phase, offset, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	if offset < 0 {
		offset = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Rank: rank, Layer: layer, Phase: phase, Offset: offset, Dur: d})
}

// Spans returns a copy of the recorded spans in recording order (which
// interleaves devices — sort by Offset, Rank or Layer as needed).
func (t *RequestTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// PhaseTotals sums the recorded spans by phase — the request-local
// equivalent of the phase counters.
func (t *RequestTrace) PhaseTotals() map[Phase]time.Duration {
	totals := make(map[Phase]time.Duration, 3)
	if t == nil {
		return totals
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		totals[s.Phase] += s.Dur
	}
	return totals
}
