package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"voltage/internal/obs"
)

// Continuous profiling & diagnostics wiring (see DESIGN.md §13). The
// cluster feeds the always-on obs.Store and obs.FlightRecorder from its
// existing observation points — recordPhase, fused decode rounds, health
// transitions, batch recoveries — and exposes snapshots through Profile,
// FlightDump, ChromeTrace, and the admin listener's /debug endpoints.

// flightDumpCooldown rate-limits automatic failure dumps to FlightSink.
const flightDumpCooldown = 30 * time.Second

// Profile returns the live per-rank profile: per-phase EWMA timings, comm
// bytes, fused-step estimates, and the skew/straggler state. This snapshot
// is the sensing input for adaptive re-partitioning (ROADMAP item 2).
func (c *Cluster) Profile() obs.Profile {
	return c.obs.Profile()
}

// Flight exposes the cluster's flight recorder so embedding layers (the
// gateway, the scheduler's shed hook) can append their own events.
func (c *Cluster) Flight() *obs.FlightRecorder {
	return c.flight
}

// FlightDump snapshots the flight recorder — recent events and request
// traces — with the live profile attached.
func (c *Cluster) FlightDump() obs.Dump {
	d := c.flight.Dump()
	p := c.obs.Profile()
	d.Profile = &p
	return d
}

// ChromeTrace renders the flight recorder's retained request traces as a
// Chrome trace-event JSON document (load it in Perfetto or
// chrome://tracing): one process per request, one thread per device rank.
func (c *Cluster) ChromeTrace() []byte {
	return obs.ChromeTrace(c.flight.Traces(), c.terminalRank())
}

// observeResolved feeds one resolved attempt into the diagnostics layer:
// scoped comm bytes into the profile store, the request's trace into the
// flight recorder, and — on a real failure — a structured event plus the
// automatic FlightSink dump.
func (c *Cluster) observeResolved(req *request, cause error) {
	for r, s := range req.perDevice {
		c.obs.RecordComm(r, int64(s.BytesSent), int64(s.BytesRecv))
	}
	rec := obs.TraceRecord{
		ID:       req.id,
		Kind:     req.runner.name(),
		Start:    req.start,
		Latency:  req.latency,
		Degraded: req.degraded,
		Attempts: req.attempts + 1,
		Spans:    req.trace.Spans(),
	}
	if cause != nil {
		rec.Err = cause.Error()
	}
	c.flight.RecordTrace(rec)
	if cause != nil && !errors.Is(cause, context.Canceled) {
		c.flight.Eventf("request_failed", -1, "request %d (%s): %v", req.id, req.runner.name(), cause)
		c.maybeDumpFlight()
	}
}

// maybeDumpFlight writes one flight dump to Options.FlightSink, at most
// once per cooldown window.
func (c *Cluster) maybeDumpFlight() {
	w := c.opts.FlightSink
	if w == nil || !c.flight.ShouldDump(flightDumpCooldown) {
		return
	}
	blob, err := json.MarshalIndent(c.FlightDump(), "", "  ")
	if err != nil {
		return
	}
	fmt.Fprintf(w, "voltage: flight recorder dump (triggered by request failure):\n%s\n", blob)
}
