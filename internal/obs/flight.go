// Package obs is the diagnostics layer: an always-on flight recorder of
// recent request traces and cluster events, and a Chrome trace-event
// exporter so per-rank timelines render directly in Perfetto /
// chrome://tracing.
//
// The package is cluster-agnostic: the cluster feeds it resolved requests'
// traces and structured events and reads back snapshots. The recorder is
// safe for concurrent use and nil-receiver-safe, so call sites need no
// guards.
package obs

import (
	"fmt"
	"sync"
	"time"

	"voltage/internal/trace"
)

// Default ring capacities for NewFlightRecorder.
const (
	DefaultEventCap = 256
	DefaultTraceCap = 32
)

// Event is one structured cluster event in the flight recorder: health
// transitions, batch recoveries, degraded entries, sheds, failures.
type Event struct {
	// Seq is a monotonically increasing sequence number; gaps never occur
	// (eviction drops the oldest entries, not sequence numbers).
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is a stable machine-matchable tag ("health", "batch_recovery",
	// "shed", "request_failed", ...).
	Kind string `json:"kind"`
	// Rank is the device the event concerns, or -1 for cluster-wide events.
	Rank int    `json:"rank"`
	Msg  string `json:"msg"`
}

// TraceRecord is one retired request's trace as kept by the flight
// recorder: identity, outcome, and (when request tracing is enabled) the
// per-rank spans the Chrome exporter renders.
type TraceRecord struct {
	ID       uint64        `json:"id"`
	Kind     string        `json:"kind"` // runner name: classify, generate, batched-generate, ...
	Start    time.Time     `json:"start"`
	Latency  time.Duration `json:"latency"`
	Err      string        `json:"err,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Attempts int           `json:"attempts,omitempty"`
	Spans    []trace.Span  `json:"spans,omitempty"`
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf     []T
	head    int // index of the oldest element
	n       int
	dropped uint64
}

func (r *ring[T]) push(v T) {
	if len(r.buf) == 0 {
		r.dropped++
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// snapshot returns the retained elements oldest-first.
func (r *ring[T]) snapshot() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// FlightRecorder is the always-on bounded record of recent cluster events
// and request traces, dumpable on demand (/debug/flight) or automatically
// on failure. Safe for concurrent use; nil-receiver methods no-op.
type FlightRecorder struct {
	mu       sync.Mutex
	seq      uint64
	events   ring[Event]
	traces   ring[TraceRecord]
	lastDump time.Time
}

// NewFlightRecorder builds a recorder retaining the last eventCap events
// and traceCap request traces (<=0 picks the defaults).
func NewFlightRecorder(eventCap, traceCap int) *FlightRecorder {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	return &FlightRecorder{
		events: ring[Event]{buf: make([]Event, eventCap)},
		traces: ring[TraceRecord]{buf: make([]TraceRecord, traceCap)},
	}
}

// Eventf records one structured event. Rank is the device concerned, or -1
// for cluster-wide events.
func (f *FlightRecorder) Eventf(kind string, rank int, format string, args ...any) {
	if f == nil {
		return
	}
	now := time.Now()
	f.mu.Lock()
	f.seq++
	f.events.push(Event{Seq: f.seq, Time: now, Kind: kind, Rank: rank, Msg: fmt.Sprintf(format, args...)})
	f.mu.Unlock()
}

// RecordTrace retains one retired request's trace.
func (f *FlightRecorder) RecordTrace(rec TraceRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.traces.push(rec)
	f.mu.Unlock()
}

// Traces returns the retained request traces, oldest first.
func (f *FlightRecorder) Traces() []TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.traces.snapshot()
}

// Dump is a point-in-time flight-recorder snapshot. Dropped counters say
// how much history eviction has discarded beyond what is shown.
type Dump struct {
	Now           time.Time     `json:"now"`
	Events        []Event       `json:"events"`
	EventsDropped uint64        `json:"events_dropped,omitempty"`
	Traces        []TraceRecord `json:"traces,omitempty"`
	TracesDropped uint64        `json:"traces_dropped,omitempty"`
}

// Dump snapshots the recorder.
func (f *FlightRecorder) Dump() Dump {
	if f == nil {
		return Dump{Now: time.Now()}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return Dump{
		Now:           time.Now(),
		Events:        f.events.snapshot(),
		EventsDropped: f.events.dropped,
		Traces:        f.traces.snapshot(),
		TracesDropped: f.traces.dropped,
	}
}

// ShouldDump rate-limits automatic failure dumps: it reports true at most
// once per cooldown, updating the limiter when it does.
func (f *FlightRecorder) ShouldDump(cooldown time.Duration) bool {
	if f == nil {
		return false
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.lastDump.IsZero() && now.Sub(f.lastDump) < cooldown {
		return false
	}
	f.lastDump = now
	return true
}
