// Package trace names the phases a distributed inference splits into —
// compute, communication, boundary, and the serving waits around them — and
// records them per request as spans (RequestTrace). The lifetime totals are
// the cluster's phase counters, fed with the same Phase values.
package trace

import "fmt"

// Phase classifies where a span of time went.
type Phase int

// Phases of a distributed inference.
const (
	// PhaseCompute is local tensor math (including emulated pacing).
	PhaseCompute Phase = iota + 1
	// PhaseComm is blocking collective communication.
	PhaseComm
	// PhaseBoundary is terminal input distribution / output collection.
	PhaseBoundary
	// PhaseQueue is time spent waiting for admission — in the gateway's
	// per-class queues or the cluster's admission queue — before any device
	// touched the request.
	PhaseQueue
	// PhaseBatchWait is time a generate sequence spent waiting to join the
	// fused decode batch after submission (continuous batching), so
	// queue-vs-fuse time is attributable per request.
	PhaseBatchWait
	// PhaseRecover is time a generate sequence spent parked between a batch
	// fault and its resumption (re-prefill on the surviving workers), so the
	// cost of riding out a device failure is attributable per request.
	PhaseRecover
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseComm:
		return "comm"
	case PhaseBoundary:
		return "boundary"
	case PhaseQueue:
		return "queue"
	case PhaseBatchWait:
		return "batch_wait"
	case PhaseRecover:
		return "recover"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}
