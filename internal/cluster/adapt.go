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
// The safe boundary is the pass: the terminal reads the installed scheme as
// each pass enters the mesh and ships the row ranges (and a joiner's owner) in
// its opPass frame, so every rank slices that pass identically and an install
// takes effect at the next one. Live sequences are not touched: a K/V cache
// does not depend on the scheme it was prefilled under, and a sequence stays
// on its owner until it leaves. The installed shares also weigh owner
// placement (pickOwner), which is how a re-slice moves decode work off a slow
// rank. Degraded rounds compose the survivors' re-slice with the installed
// ratios (degradedScheme), likewise at each pass.

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
// immediate; the loop applies it from the next pass on. cause labels
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

// degradedScheme re-partitions the sequence positions over the surviving
// ranks of a degraded round — cheap by construction: Voltage's position-wise
// partition means any contiguous re-slice of the sequence over the survivors
// is a valid plan, and every worker holds a full model replica from the
// shared seed, so the survivors run exactly the math a smaller cluster would.
// Once the adaptive controller has installed a weighted scheme, a failure
// re-slice keeps the survivors' learned relative shares — the observed speeds
// are better evidence than the configured rates. Before any install,
// survivors weight by their configured compute rates on heterogeneous
// clusters, uniformly otherwise.
func (c *Cluster) degradedScheme(live []int) (*partition.Scheme, error) {
	c.schemeMu.RLock()
	ratios, installed := c.scheme.Ratios(), c.schemeGen > 0
	c.schemeMu.RUnlock()
	weights := make([]float64, len(live))
	if installed {
		var sum float64
		for i, r := range live {
			weights[i] = ratios[r]
			sum += ratios[r]
		}
		// A survivor set whose installed shares are all zero (possible when
		// every survivor was squeezed out by the last install) falls through
		// to the static weighting below.
		if sum > 0 {
			return partition.Weighted(weights)
		}
	}
	if c.opts.HeteroDeviceFlops != nil {
		for i, r := range live {
			weights[i] = c.opts.HeteroDeviceFlops[r]
		}
		return partition.Weighted(weights)
	}
	return partition.Even(len(live))
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
