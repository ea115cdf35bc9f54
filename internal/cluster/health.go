package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"voltage/internal/comm"
)

// Device health tracking for degraded-mode serving. The tracker records
// per-rank failure causes gathered from a failed round's error slots and
// drives three states:
//
//	Healthy   — serves requests normally.
//	Unhealthy — excluded from new requests; entered on a blamed failure.
//	Probation — an unhealthy rank whose ProbeAfter window has elapsed: it
//	            is offered the next request and recovers to Healthy on
//	            success (or returns to Unhealthy on failure).
//
// Blame is attributed by voting: every error slot that carries a
// comm.RemoteError names a culprit (a corrupt frame names its sender, a
// receive timeout names the silent source), and a worker that failed with
// a directly-injected or local fault blames itself. Secondary
// cancellations — healthy ranks released by the round's context after the
// first failure — carry no vote.

// HealthState is one rank's serving eligibility.
type HealthState int

// Health states.
const (
	// Healthy ranks serve requests normally.
	Healthy HealthState = iota
	// Probation ranks are unhealthy ranks being offered a probing request.
	Probation
	// Unhealthy ranks are excluded from new requests.
	Unhealthy
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Probation:
		return "probation"
	case Unhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// RankHealth is one worker's health snapshot.
type RankHealth struct {
	// Rank is the worker rank.
	Rank int
	// State is the current serving eligibility.
	State HealthState
	// Failures counts blamed failures over the cluster's lifetime.
	Failures int
	// LastErr is the cause of the most recent blamed failure (nil when the
	// rank has never failed).
	LastErr error
}

// healthTracker is the cluster's shared rank-health state. All methods are
// safe for concurrent use (the serving loop writes, Health reads).
type healthTracker struct {
	mu         sync.Mutex
	probeAfter time.Duration
	ranks      []rankHealth
	// onTransition, when non-nil, observes every state change (set once at
	// construction, before any request flows — the metrics mirror). Called
	// with the tracker's lock held; observers must not call back in.
	onTransition func(rank int, from, to HealthState)
}

// transition moves one rank's state, notifying the observer on change.
func (h *healthTracker) transition(rank int, to HealthState) {
	from := h.ranks[rank].state
	if from == to {
		return
	}
	h.ranks[rank].state = to
	if h.onTransition != nil {
		h.onTransition(rank, from, to)
	}
}

type rankHealth struct {
	state     HealthState
	failures  int
	lastErr   error
	downSince time.Time
}

func newHealthTracker(k int, probeAfter time.Duration) *healthTracker {
	return &healthTracker{probeAfter: probeAfter, ranks: make([]rankHealth, k)}
}

// live returns the worker ranks eligible for a new request: healthy ranks
// plus unhealthy ranks whose probation window has elapsed (marked
// Probation as a side effect).
func (h *healthTracker) live(now time.Time) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	live := make([]int, 0, len(h.ranks))
	for r := range h.ranks {
		rh := &h.ranks[r]
		if rh.state == Unhealthy && h.probeAfter > 0 && now.Sub(rh.downSince) >= h.probeAfter {
			h.transition(r, Probation)
		}
		if rh.state != Unhealthy {
			live = append(live, r)
		}
	}
	return live
}

// recordFailure blames rank for a failed attempt, moving it to Unhealthy.
func (h *healthTracker) recordFailure(rank int, cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rank < 0 || rank >= len(h.ranks) {
		return
	}
	rh := &h.ranks[rank]
	h.transition(rank, Unhealthy)
	rh.failures++
	rh.lastErr = cause
	rh.downSince = time.Now()
}

// recordSuccess marks the given ranks healthy — probing ranks recover here.
func (h *healthTracker) recordSuccess(ranks []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range ranks {
		if r >= 0 && r < len(h.ranks) {
			h.transition(r, Healthy)
		}
	}
}

// snapshot returns every rank's health.
func (h *healthTracker) snapshot() []RankHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]RankHealth, len(h.ranks))
	for r, rh := range h.ranks {
		out[r] = RankHealth{Rank: r, State: rh.state, Failures: rh.failures, LastErr: rh.lastErr}
	}
	return out
}

// Health returns a snapshot of every worker rank's health state.
func (c *Cluster) Health() []RankHealth {
	return c.health.snapshot()
}

// blameRank inspects a failed round's per-role errors (worker ranks
// first, terminal last) and elects the culprit worker by vote count:
// every attributed error names its remote rank, and a worker whose own
// failure is unattributed but not a secondary cancellation names itself.
// Returns -1 when no worker can be blamed (e.g. a caller cancellation).
func blameRank(errs []error, k int) (int, error) {
	votes := make([]int, k)
	causes := make([]error, k)
	for role, err := range errs {
		if err == nil || isSecondary(err) {
			continue
		}
		if r, ok := comm.RemoteRank(err); ok {
			if r >= 0 && r < k {
				votes[r]++
				if causes[r] == nil {
					causes[r] = err
				}
			}
			continue
		}
		if role < k { // a worker's own unattributed failure
			votes[role]++
			// The rank's own error states the cause directly (e.g. the
			// injected fault), where peers' attributed timeouts only record
			// the symptom — prefer it even when a peer's vote landed first.
			causes[role] = err
		}
	}
	best, bestVotes := -1, 0
	for r, v := range votes {
		if v > bestVotes {
			best, bestVotes = r, v
		}
	}
	if best < 0 {
		return -1, nil
	}
	return best, causes[best]
}

// isSecondary reports whether an error is a knock-on cancellation rather
// than a root cause: once one role fails, the round's context is cancelled
// and every other blocked role resolves with context.Canceled.
func isSecondary(err error) bool {
	return errors.Is(err, context.Canceled) && !errors.Is(err, comm.ErrTimeout)
}

// retryable reports whether a failure is worth a degraded re-dispatch:
// injected faults, watchdog timeouts, corrupt frames, and request-deadline
// expiries. Logic errors (shape mismatches, strategy misuse) and caller
// cancellations are final.
func retryable(err error) bool {
	return errors.Is(err, comm.ErrInjected) ||
		errors.Is(err, comm.ErrTimeout) ||
		errors.Is(err, comm.ErrCorrupt) ||
		errors.Is(err, context.DeadlineExceeded)
}
