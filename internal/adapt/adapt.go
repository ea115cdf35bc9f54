// Package adapt is the closed-loop re-partitioning controller: it turns
// the profile store's live per-rank estimates (internal/obs) into
// partition-scheme decisions. The Voltage paper's §V-B observes that the
// position-wise partition can change at any synchronization boundary
// "without any penalty"; this package supplies the policy half of that
// loop — sensing and deciding — while the cluster owns actuation
// (installing the scheme at a safe boundary).
//
// The controller is deliberately conservative. An install parks nothing —
// it reaches the next sequence to join, slicing its prefill and weighing
// its owner rank — but a move made on noise misplaces those joiners until
// it is corrected. Three guards keep the loop from thrashing:
//
//   - threshold: a candidate scheme must predict a round-time improvement
//     over the installed one of more than Threshold (default 10%);
//   - hysteresis: the prediction must clear the threshold on Evals
//     consecutive evaluations (default 3) — one noisy EWMA excursion
//     never moves the partition;
//   - cooldown: at least Cooldown (default 2s) must pass between installed
//     schemes, bounding churn even under oscillating load.
//
// Evaluate is a pure function of the injected clock and profile snapshot,
// so the policy is deterministic and testable without a cluster.
package adapt

import (
	"fmt"
	"time"

	"voltage/internal/balance"
	"voltage/internal/obs"
)

// Defaults for Config zero values.
const (
	// DefaultThreshold is the minimum predicted fractional round-time
	// improvement required to count an evaluation toward a move.
	DefaultThreshold = 0.10
	// DefaultEvals is how many consecutive over-threshold evaluations
	// arm a move.
	DefaultEvals = 3
	// DefaultCooldown is the minimum spacing between installed schemes.
	DefaultCooldown = 2 * time.Second
	// DefaultMinStepSamples is how many fused-step samples a rank needs
	// before its EWMA is trusted as a speed estimate.
	DefaultMinStepSamples = 4
)

// Decision causes, used as the metrics label on installed re-partitions.
const (
	// CauseStraggler marks a move while the skew detector flagged a
	// persistent straggler.
	CauseStraggler = "straggler"
	// CauseSkew marks a move on EWMA skew alone, below the straggler
	// detector's trigger.
	CauseSkew = "skew"
	// CauseManual marks an externally requested install (tests, ops).
	CauseManual = "manual"
)

// Config tunes the controller.
type Config struct {
	// K is the worker count; candidate schemes span all K ranks.
	K int
	// Threshold, Evals, Cooldown are the hysteresis guards (zero values
	// select the defaults above). Threshold is a fraction: 0.10 requires
	// a predicted round time at most 90% of the current one.
	Threshold float64
	Evals     int
	Cooldown  time.Duration
	// MinStepSamples gates how much evidence a rank needs before its step
	// EWMA feeds the tracker (0 = DefaultMinStepSamples).
	MinStepSamples uint64
	// Alpha is the tracker's EWMA smoothing factor (0 = balance default).
	Alpha float64
}

// Outcome reports how a previously installed move actually played out,
// measured from fresh estimates once the move has settled.
type Outcome struct {
	// PredictedGain is the fractional improvement promised at install time.
	PredictedGain float64
	// RealizedGain is the improvement recomputed from post-move estimates:
	// 1 − T(new ratios)/T(old ratios) under the fresh per-rank speeds.
	// Negative means the move made rounds slower.
	RealizedGain float64
}

// Decision is one evaluation's output.
type Decision struct {
	// Install is true when the hysteresis and cooldown guards all passed;
	// Ratios then holds the candidate scheme to install.
	Install       bool
	Ratios        []float64
	PredictedGain float64
	// Cause classifies the move (CauseStraggler or CauseSkew).
	Cause string
	// Streak is the consecutive over-threshold evaluation count after
	// this evaluation (diagnostic).
	Streak int
	// Realized, when non-nil, settles the previous move (see Outcome). It
	// can accompany any evaluation, including non-installing ones.
	Realized *Outcome
}

// pendingMove tracks an installed-but-unsettled move for realized-gain
// measurement.
type pendingMove struct {
	oldRatios []float64
	newRatios []float64
	predicted float64
	roundsAt  uint64
}

// Controller derives candidate schemes from profile snapshots and applies
// the hysteresis policy. Not safe for concurrent use; the cluster's adapt
// loop is its single caller.
type Controller struct {
	cfg     Config
	tracker *balance.Tracker
	streak  int
	moved   bool
	lastAt  time.Time
	pending *pendingMove
}

// New builds a controller, resolving Config defaults.
func New(cfg Config) (*Controller, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("adapt: k = %d < 1", cfg.K)
	}
	if cfg.Threshold < 0 || cfg.Evals < 0 || cfg.Cooldown < 0 {
		return nil, fmt.Errorf("adapt: negative hysteresis knob (threshold %v, evals %d, cooldown %s)",
			cfg.Threshold, cfg.Evals, cfg.Cooldown)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Evals == 0 {
		cfg.Evals = DefaultEvals
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.MinStepSamples == 0 {
		cfg.MinStepSamples = DefaultMinStepSamples
	}
	tracker, err := balance.NewTracker(cfg.K, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, tracker: tracker}, nil
}

// roundTime predicts the fused-round finish time of a ratio split under
// per-rank seconds-per-position estimates d: the slowest rank's share,
// max_r ratios[r]·d[r] (positions are what the scheme hands out; the round
// ends when the last rank finishes its share).
func roundTime(ratios, d []float64) float64 {
	var worst float64
	for r := range ratios {
		if t := ratios[r] * d[r]; t > worst {
			worst = t
		}
	}
	return worst
}

// Evaluate runs one control iteration: fold the profile into the speed
// tracker, settle any pending move against the fresh estimates, derive the
// candidate scheme, and decide — under threshold, hysteresis, and cooldown
// — whether to install it. current is the installed scheme's ratio vector.
func (c *Controller) Evaluate(now time.Time, p obs.Profile, current []float64) (Decision, error) {
	var dec Decision
	if len(current) != c.cfg.K {
		return dec, fmt.Errorf("adapt: %d current ratios for %d ranks", len(current), c.cfg.K)
	}
	fed, err := balance.FeedProfile(c.tracker, p, c.cfg.MinStepSamples)
	if err != nil {
		return dec, err
	}
	d := c.tracker.Imputed()
	if fed == 0 || d == nil {
		// No usable evidence yet: keep the streak at zero so stale
		// pre-silence excursions cannot arm a move.
		c.streak = 0
		dec.Streak = 0
		return dec, nil
	}
	// Settle the previous move once enough post-move rounds have refreshed
	// the estimates — comparing old vs new ratios under the same fresh d
	// isolates the move's effect from concurrent speed drift.
	if pm := c.pending; pm != nil && p.Rounds >= pm.roundsAt+uint64(c.cfg.MinStepSamples) {
		oldT, newT := roundTime(pm.oldRatios, d), roundTime(pm.newRatios, d)
		out := &Outcome{PredictedGain: pm.predicted}
		if oldT > 0 {
			out.RealizedGain = 1 - newT/oldT
		}
		dec.Realized = out
		c.pending = nil
	}
	scheme, err := c.tracker.Scheme()
	if err != nil {
		return dec, err
	}
	cand := scheme.Ratios()
	curT := roundTime(current, d)
	if curT <= 0 {
		c.streak = 0
		return dec, nil
	}
	gain := 1 - roundTime(cand, d)/curT
	dec.PredictedGain = gain
	if gain <= c.cfg.Threshold {
		c.streak = 0
		return dec, nil
	}
	c.streak++
	dec.Streak = c.streak
	if c.streak < c.cfg.Evals {
		return dec, nil
	}
	if c.moved && now.Sub(c.lastAt) < c.cfg.Cooldown {
		return dec, nil // armed, but inside the cooldown window
	}
	dec.Install = true
	dec.Ratios = cand
	dec.Cause = CauseSkew
	for _, r := range p.Ranks {
		if !r.Terminal && r.Straggler {
			dec.Cause = CauseStraggler
			break
		}
	}
	c.streak = 0
	c.moved = true
	c.lastAt = now
	c.pending = &pendingMove{
		oldRatios: append([]float64(nil), current...),
		newRatios: append([]float64(nil), cand...),
		predicted: gain,
		roundsAt:  p.Rounds,
	}
	return dec, nil
}
