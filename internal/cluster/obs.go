package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"voltage/internal/obs"
)

// Diagnostics wiring (see DESIGN.md §11). The cluster feeds the always-on
// obs.FlightRecorder from its existing observation points — health
// transitions, recoveries, resolved requests — and exposes snapshots
// through FlightDump and ChromeTrace.

// flightDumpCooldown rate-limits automatic failure dumps to FlightSink.
const flightDumpCooldown = 30 * time.Second

// Flight exposes the cluster's flight recorder so embedding layers (the
// gateway, the scheduler's shed hook) can append their own events.
func (c *Cluster) Flight() *obs.FlightRecorder {
	return c.flight
}

// FlightDump snapshots the flight recorder: recent events and request
// traces.
func (c *Cluster) FlightDump() obs.Dump {
	return c.flight.Dump()
}

// ChromeTrace renders the flight recorder's retained request traces as a
// Chrome trace-event JSON document (load it in Perfetto or
// chrome://tracing): one process per request, one thread per device rank.
func (c *Cluster) ChromeTrace() []byte {
	return obs.ChromeTrace(c.flight.Traces(), c.terminalRank())
}

// observeResolved feeds one resolved request into the diagnostics layer: its
// trace into the flight recorder and — on a real failure — a structured event
// plus the automatic FlightSink dump.
func (c *Cluster) observeResolved(req *request, cause error) {
	rec := obs.TraceRecord{
		ID:       req.id,
		Kind:     req.kind(),
		Start:    req.enq,
		Latency:  time.Since(req.enq),
		Degraded: req.degraded,
		Attempts: req.attempts,
		Spans:    req.trace.Spans(),
	}
	if cause != nil {
		rec.Err = cause.Error()
	}
	c.flight.RecordTrace(rec)
	if cause != nil && !errors.Is(cause, context.Canceled) {
		c.flight.Eventf("request_failed", -1, "request %d (%s): %v", req.id, req.kind(), cause)
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
