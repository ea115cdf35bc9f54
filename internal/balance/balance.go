// Package balance implements runtime partition-scheme adaptation — the
// flexibility Section V-B of the Voltage paper points out: every device
// holds the full layer input after synchronization, so the scheme can
// change per layer "without any penalty".
//
// A Tracker keeps an exponentially weighted estimate of every device's
// seconds-per-position and derives the scheme that equalizes predicted
// finish times (ratios proportional to device speed). The adaptive
// controller (internal/adapt) feeds it from the cluster's persistent per-rank
// profile and installs the scheme it derives between requests.
package balance

import (
	"fmt"
	"math"

	"voltage/internal/partition"
)

// DefaultAlpha is the EWMA smoothing factor: high enough to adapt within a
// few layers, low enough to ride out timing noise.
const DefaultAlpha = 0.5

// Tracker estimates per-device compute speed and derives schemes.
type Tracker struct {
	k      int
	alpha  float64
	perPos []float64 // EWMA seconds per position; 0 = no observation yet
}

// NewTracker returns a tracker for k devices. alpha ≤ 0 selects
// DefaultAlpha.
func NewTracker(k int, alpha float64) (*Tracker, error) {
	if k < 1 {
		return nil, fmt.Errorf("balance: k = %d", k)
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha > 1 {
		return nil, fmt.Errorf("balance: alpha = %v > 1", alpha)
	}
	return &Tracker{k: k, alpha: alpha, perPos: make([]float64, k)}, nil
}

// K returns the tracked device count.
func (t *Tracker) K() int { return t.k }

// Update folds one round of observations in: times[r] is device r's
// measured seconds per position this layer, with values ≤ 0 (or NaN/Inf)
// meaning "no observation" (e.g. an empty partition), which keeps the
// previous estimate.
func (t *Tracker) Update(times []float64) error {
	if len(times) != t.k {
		return fmt.Errorf("balance: %d observations for %d devices", len(times), t.k)
	}
	for r, v := range times {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if t.perPos[r] == 0 {
			t.perPos[r] = v
			continue
		}
		t.perPos[r] = t.alpha*v + (1-t.alpha)*t.perPos[r]
	}
	return nil
}

// PerPosition returns a copy of the current estimates (0 = unknown).
func (t *Tracker) PerPosition() []float64 {
	cp := make([]float64, t.k)
	copy(cp, t.perPos)
	return cp
}

// Scheme derives the speed-proportional partition scheme: device r's ratio
// ∝ 1/perPos[r]. Devices without observations are imputed the mean
// seconds-per-position of the observed ones — imputing mean *speed* (the
// old behaviour) skews the ratios toward the fast devices whenever the
// observed set is itself skewed, because 1/mean(perPos) ≠ mean(1/perPos).
// With no observations at all the scheme is even.
func (t *Tracker) Scheme() (*partition.Scheme, error) {
	est := t.Imputed()
	if est == nil {
		return partition.Even(t.k)
	}
	speeds := make([]float64, t.k)
	for r, pp := range est {
		speeds[r] = 1 / pp
	}
	return partition.Weighted(speeds)
}

// Imputed returns the per-device seconds-per-position estimates with
// unobserved devices filled in at the mean of the observed ones, or nil
// when nothing has been observed yet. It is what Scheme derives ratios
// from, exposed so a controller can predict round times under the same
// estimates.
func (t *Tracker) Imputed() []float64 {
	var sum float64
	var seen int
	for _, pp := range t.perPos {
		if pp > 0 {
			sum += pp
			seen++
		}
	}
	if seen == 0 {
		return nil
	}
	mean := sum / float64(seen)
	est := make([]float64, t.k)
	for r, pp := range t.perPos {
		if pp <= 0 {
			pp = mean
		}
		est[r] = pp
	}
	return est
}
