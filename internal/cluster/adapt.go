package cluster

import (
	"fmt"
	"time"

	"voltage/internal/partition"
)

// Closed-loop adaptive re-partitioning (see DESIGN.md "Adaptive
// re-partitioning"). The policy lives in internal/adapt; this file is the
// cluster's half of the loop — sensing input (the profile store snapshot)
// and actuation (swapping the serving scheme at safe boundaries).
//
// Safe boundaries, by serve path:
//
//   - exclusive/solo requests: submit() pins the current scheme on the
//     request, so a scheme installed mid-flight only affects requests
//     admitted after it — "between requests";
//   - batched generation: the terminal reads the installed scheme at each
//     join and ships the joiner's row ranges and owner in its opPrefill
//     frame, so every rank slices that prefill identically and an install
//     takes effect at the next join. Live sequences are not touched: a K/V
//     cache does not depend on the scheme it was prefilled under, and a
//     sequence stays on its owner until it leaves. The installed shares
//     also weigh owner placement (pickOwner), which is how a re-slice
//     moves decode work off a slow rank;
//   - degraded rounds compose the survivors' re-slice with the installed
//     ratios (degradedScheme), likewise at each join.

// defaultAdaptInterval is the controller's evaluation period when
// Options.AdaptInterval is zero.
const defaultAdaptInterval = 50 * time.Millisecond

// currentScheme returns the installed partition scheme.
func (c *Cluster) currentScheme() *partition.Scheme {
	c.schemeMu.RLock()
	defer c.schemeMu.RUnlock()
	return c.scheme
}

// Scheme returns the partition scheme currently serving new work. It
// starts as Options.Scheme and moves when the adaptive controller (or an
// explicit InstallScheme call) re-slices.
func (c *Cluster) Scheme() *partition.Scheme {
	return c.currentScheme()
}

// InstallScheme swaps the serving partition scheme. The swap itself is
// immediate; work already holding a pinned scheme finishes under it, and
// the running decode batch applies it from its next join on. cause labels
// the repartition counter (adapt.CauseStraggler/CauseSkew/CauseManual);
// predictedGain is the controller's promised fractional round-time
// improvement (0 for manual installs).
func (c *Cluster) InstallScheme(s *partition.Scheme, cause string, predictedGain float64) error {
	if s == nil {
		return fmt.Errorf("cluster: nil scheme")
	}
	if s.K() != c.k {
		return fmt.Errorf("cluster: scheme for %d devices, cluster has %d", s.K(), c.k)
	}
	c.schemeMu.Lock()
	old := c.scheme
	c.scheme = s
	c.schemeGen++
	gen := c.schemeGen
	c.schemeMu.Unlock()
	c.metrics.repartition(cause, s.Ratios())
	c.flight.Eventf("repartition", -1, "scheme generation %d installed (cause %s, predicted gain %.1f%%): %.3f -> %.3f",
		gen, cause, predictedGain*100, old.Ratios(), s.Ratios())
	return nil
}

// adaptLoop drives the re-partitioning controller until the cluster
// closes: every AdaptInterval it snapshots the profile store, lets the
// policy evaluate it against the installed ratios, and installs the
// candidate scheme when the hysteresis guards pass.
func (c *Cluster) adaptLoop() {
	interval := c.opts.AdaptInterval
	if interval <= 0 {
		interval = defaultAdaptInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.serveCtx.Done():
			return
		case now := <-tick.C:
			c.adaptTick(now)
		}
	}
}

// adaptTick is one controller evaluation.
func (c *Cluster) adaptTick(now time.Time) {
	dec, err := c.adaptCtl.Evaluate(now, c.obs.Profile(), c.currentScheme().Ratios())
	if err != nil {
		c.flight.Eventf("repartition", -1, "controller evaluation failed: %v", err)
		return
	}
	if out := dec.Realized; out != nil {
		c.flight.Eventf("repartition", -1, "move settled: predicted gain %.1f%%, realized %.1f%%",
			out.PredictedGain*100, out.RealizedGain*100)
	}
	if !dec.Install {
		return
	}
	s, err := partition.New(dec.Ratios)
	if err != nil {
		c.flight.Eventf("repartition", -1, "candidate scheme rejected: %v", err)
		return
	}
	if err := c.InstallScheme(s, dec.Cause, dec.PredictedGain); err != nil {
		c.flight.Eventf("repartition", -1, "install failed: %v", err)
	}
}
