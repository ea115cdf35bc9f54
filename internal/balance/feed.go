package balance

import "voltage/internal/obs"

// FeedProfile folds an obs.Profile snapshot into the tracker: each worker
// rank's fused-decode-step EWMA becomes one seconds-per-position
// observation. Each rank advances only the sequences it owns, so the
// store has already divided every step time by the rank's own work plus
// the step's learned fixed part (obs.Store.RecordRound): the EWMA is the
// rank's seconds per unit of compute up to a common constant, which
// Weighted normalizes away, whatever share of each round the rank carried.
// Ranks with fewer than minSamples step samples are skipped; a rank that
// owned nothing lately keeps feeding its last EWMA until it owns a sequence
// again (the cluster's placement takes turns so that it does). The terminal
// never contributes. Returns how many ranks contributed.
func FeedProfile(t *Tracker, p obs.Profile, minSamples uint64) (int, error) {
	times := make([]float64, t.k)
	n := 0
	for _, r := range p.Ranks {
		if r.Terminal || r.Rank < 0 || r.Rank >= t.k {
			continue
		}
		if r.StepSamples < minSamples || r.StepEWMASeconds <= 0 {
			continue
		}
		times[r.Rank] = r.StepEWMASeconds
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.Update(times)
}
