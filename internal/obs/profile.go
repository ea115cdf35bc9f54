// Package obs is the continuous profiling and diagnostics layer: a rolling
// per-rank profile store (behind the skew gauges and flight dumps), a
// fused-round straggler/skew detector, an always-on flight recorder of
// recent traces and cluster events, and a Chrome trace-event exporter so
// per-rank timelines render directly in Perfetto / chrome://tracing.
//
// The package is deliberately dependency-free and cluster-agnostic: the
// cluster feeds it raw observations (phase durations, comm bytes, fused
// round times) and reads back snapshots. All types are safe for concurrent
// use and nil-receiver-safe, so call sites need no guards.
package obs

import (
	"sync"
	"time"

	"voltage/internal/trace"
)

// Defaults for StoreOptions zero values.
const (
	// DefaultAlpha is the EWMA weight given to each new sample.
	DefaultAlpha = 0.25
	// DefaultSkewThreshold is the per-round ratio of a rank's per-work-unit
	// step time to the round's mean that counts toward straggler detection.
	DefaultSkewThreshold = 1.5
	// DefaultStragglerRounds is how many consecutive qualifying (or
	// recovered) rounds flip the straggler flag on (or off).
	DefaultStragglerRounds = 4

	// maxPartialRounds bounds the number of in-flight (not yet fully
	// reported) fused rounds the store tracks; older partials are dropped.
	maxPartialRounds = 64

	// The fixed-cost fit (stepFit) forgets slowly — a step's fixed part is a
	// property of the device and the protocol, not of the moment — and reads
	// a rank's line only once it has fitMinSamples samples whose work spreads
	// (standard deviation) over at least fitMinSpread of its mean.
	fitAlpha      = 1.0 / 32
	fitMinSamples = 16
	fitMinSpread  = 0.1
)

// StoreOptions configures a profile Store.
type StoreOptions struct {
	// K is the number of worker ranks; rank K is the terminal.
	K int
	// Alpha is the EWMA weight for new samples (0 = DefaultAlpha).
	Alpha float64
	// SkewThreshold and StragglerRounds tune the straggler detector
	// (0 = DefaultSkewThreshold / DefaultStragglerRounds).
	SkewThreshold   float64
	StragglerRounds int
	// OnRound fires after every completed fused round with that round's
	// compute-time skew and the running EWMA. OnStraggler fires when a
	// rank's persistent-straggler flag flips. Both are invoked outside the
	// store's lock but must not block; they run on decode hot paths.
	OnRound     func(round uint64, skew, ewma float64)
	OnStraggler func(rank int, flagged bool)
}

// phaseEst is one rank×phase rolling estimate.
type phaseEst struct {
	ewma    float64 // seconds
	total   time.Duration
	samples uint64
}

func (e *phaseEst) observe(d time.Duration, alpha float64) {
	e.observeSeconds(d.Seconds(), alpha)
	e.total += d
}

func (e *phaseEst) observeSeconds(s, alpha float64) {
	if e.samples == 0 {
		e.ewma = s
	} else {
		e.ewma += alpha * (s - e.ewma)
	}
	e.samples++
}

// stepFit is one rank's least-squares line through its (work, step time)
// samples, recent ones weighing more: the rolling means of both, of work²
// and of their product.
type stepFit struct {
	n            int
	w, d, ww, wd float64
}

func (f *stepFit) add(w, d float64) {
	if f.n == 0 {
		f.w, f.d, f.ww, f.wd = w, d, w*w, w*d
	} else {
		f.w += fitAlpha * (w - f.w)
		f.d += fitAlpha * (d - f.d)
		f.ww += fitAlpha * (w*w - f.ww)
		f.wd += fitAlpha * (w*d - f.wd)
	}
	f.n++
}

// fixedWork reads the line's intercept in work units: the work that takes
// the rank as long as the part of a step that does not grow with its rows.
// A device k times slower is k times slower on both parts, so the figure is
// comparable across ranks. ok is false while the rank's work has not varied
// enough to tell the parts apart (it has owned the same rows all along), or
// the samples do not lie on a rising line with a credible intercept — a
// fixed part beyond half the mean work is noise, not a matmul-bound step.
func (f *stepFit) fixedWork() (fixed float64, ok bool) {
	varW := f.ww - f.w*f.w
	cov := f.wd - f.w*f.d
	if f.n < fitMinSamples || varW < fitMinSpread*fitMinSpread*f.w*f.w || cov <= 0 {
		return 0, false
	}
	fixed = f.d*varW/cov - f.w // intercept ÷ slope
	if fixed > f.w/2 {
		return 0, false
	}
	return max(fixed, 0), true
}

// partialRound collects per-rank fused-step times (seconds per unit of the
// rank's work) for one round until every participating rank has reported.
type partialRound struct {
	round uint64
	want  int
	times map[int]float64
}

// Store is the rolling per-rank profile: per-phase EWMA timings, scoped
// comm bytes, fused-step estimates, and the straggler/skew detector. Its
// snapshots feed the cluster's skew gauges and flight dumps.
type Store struct {
	opts StoreOptions

	mu     sync.Mutex
	phases [][]phaseEst // [rank][phase-1]
	steps  []phaseEst   // per-rank fused decode step, seconds per work unit
	fits   []stepFit    // per-rank step time against work
	fixed  float64      // a step's fixed cost in work units, pooled over fits
	fitted bool         // fixed has been read off at least one rank's line
	sent   []int64      // comm bytes per rank
	recv   []int64

	rounds   uint64  // completed fused rounds
	lastSkew float64 // last round's max/mean
	skewEWMA float64
	partial  []partialRound // in-flight rounds, oldest first

	above     []int // consecutive rounds at/over threshold, per rank
	below     []int // consecutive rounds under threshold while flagged
	straggler []bool
}

// NewStore builds a profile store for ranks 0..K (K = terminal).
func NewStore(opts StoreOptions) *Store {
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		opts.Alpha = DefaultAlpha
	}
	if opts.SkewThreshold <= 1 {
		opts.SkewThreshold = DefaultSkewThreshold
	}
	if opts.StragglerRounds <= 0 {
		opts.StragglerRounds = DefaultStragglerRounds
	}
	n := opts.K + 1 // workers plus terminal
	s := &Store{
		opts:      opts,
		phases:    make([][]phaseEst, n),
		steps:     make([]phaseEst, n),
		fits:      make([]stepFit, n),
		sent:      make([]int64, n),
		recv:      make([]int64, n),
		above:     make([]int, n),
		below:     make([]int, n),
		straggler: make([]bool, n),
	}
	for r := range s.phases {
		s.phases[r] = make([]phaseEst, int(trace.PhaseRecover))
	}
	return s
}

// RecordPhase folds one phase duration into rank's rolling estimates.
func (s *Store) RecordPhase(rank int, phase trace.Phase, d time.Duration) {
	if s == nil || rank < 0 || rank >= len(s.phases) {
		return
	}
	i := int(phase) - 1
	if i < 0 || i >= int(trace.PhaseRecover) {
		return
	}
	s.mu.Lock()
	s.phases[rank][i].observe(d, s.opts.Alpha)
	s.mu.Unlock()
}

// RecordComm adds scoped comm bytes for rank.
func (s *Store) RecordComm(rank int, sent, recv int64) {
	if s == nil || rank < 0 || rank >= len(s.sent) {
		return
	}
	s.mu.Lock()
	s.sent[rank] += sent
	s.recv[rank] += recv
	s.mu.Unlock()
}

// RecordRound reports that rank spent d on `work` units of fused round
// `round`, in which `live` ranks took part. Ranks do unequal shares of a
// round (each advances only the sequences it owns), so every comparison —
// the per-rank step estimate, the round's skew, the straggler detector —
// is per unit of work; the cluster passes the analytic MAC count of the
// rank's rows. A step also has a part that does not grow with its rows
// (weights are streamed once however many rows ride the matmul), which
// weighs heavier per unit on a rank with fewer rows: the store learns it
// from how each rank's step time moves with its work (stepFit), pools the
// ranks' readings, and divides d by work plus that fixed share. Until some
// rank's work has varied the share is zero and the comparison is d/work.
// When the last participant reports, the round finalizes: skew (max/mean) is
// computed and the straggler detector advances. Rounds interleave freely — a
// bounded set of partial rounds is kept and stale ones are dropped.
func (s *Store) RecordRound(round uint64, rank, live int, d time.Duration, work int64) {
	if s == nil || rank < 0 || rank >= len(s.steps) || live <= 0 || work <= 0 {
		return
	}
	var fire []func()
	s.mu.Lock()
	s.fits[rank].add(float64(work), d.Seconds())
	s.poolFixedLocked()
	unit := d.Seconds() / (float64(work) + s.fixed)
	s.steps[rank].observeSeconds(unit, s.opts.Alpha)
	pi := -1
	for i := range s.partial {
		if s.partial[i].round == round {
			pi = i
			break
		}
	}
	if pi < 0 {
		if len(s.partial) >= maxPartialRounds {
			s.partial = s.partial[1:]
		}
		s.partial = append(s.partial, partialRound{round: round, want: live, times: make(map[int]float64, live)})
		pi = len(s.partial) - 1
	}
	p := &s.partial[pi]
	if live < p.want {
		p.want = live // a rank died mid-round: settle for the smaller live set
	}
	p.times[rank] = unit
	if len(p.times) >= p.want {
		fire = s.finalizeLocked(p)
		s.partial = append(s.partial[:pi], s.partial[pi+1:]...)
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// poolFixedLocked moves the store's fixed-work estimate toward the mean of
// the ranks' current readings, keeping it when no rank has one.
func (s *Store) poolFixedLocked() {
	var sum float64
	n := 0
	for i := range s.fits {
		if f, ok := s.fits[i].fixedWork(); ok {
			sum += f
			n++
		}
	}
	switch {
	case n == 0:
	case !s.fitted:
		s.fixed, s.fitted = sum/float64(n), true
	default:
		s.fixed += fitAlpha * (sum/float64(n) - s.fixed)
	}
}

// finalizeLocked closes one fully-reported round and returns the callbacks
// to fire after the lock is released.
func (s *Store) finalizeLocked(p *partialRound) []func() {
	var max, sum float64
	for _, d := range p.times {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / float64(len(p.times))
	if mean <= 0 {
		return nil
	}
	skew := max / mean
	s.rounds++
	s.lastSkew = skew
	if s.rounds == 1 {
		s.skewEWMA = skew
	} else {
		s.skewEWMA += s.opts.Alpha * (skew - s.skewEWMA)
	}

	var fire []func()
	round, ewma := p.round, s.skewEWMA
	if f := s.opts.OnRound; f != nil {
		fire = append(fire, func() { f(round, skew, ewma) })
	}
	for rank, d := range p.times {
		ratio := d / mean
		if ratio >= s.opts.SkewThreshold {
			s.above[rank]++
			s.below[rank] = 0
			if !s.straggler[rank] && s.above[rank] >= s.opts.StragglerRounds {
				s.straggler[rank] = true
				if f := s.opts.OnStraggler; f != nil {
					r := rank
					fire = append(fire, func() { f(r, true) })
				}
			}
		} else {
			s.above[rank] = 0
			if s.straggler[rank] {
				s.below[rank]++
				if s.below[rank] >= s.opts.StragglerRounds {
					s.straggler[rank] = false
					s.below[rank] = 0
					if f := s.opts.OnStraggler; f != nil {
						r := rank
						fire = append(fire, func() { f(r, false) })
					}
				}
			}
		}
	}
	return fire
}

// PhaseStats is one rank×phase rolling estimate in a Profile snapshot.
type PhaseStats struct {
	// EWMASeconds tracks recent behavior; MeanSeconds is the lifetime mean.
	EWMASeconds  float64 `json:"ewma_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
	Samples      uint64  `json:"samples"`
}

// RankProfile is one device's live profile.
type RankProfile struct {
	Rank     int  `json:"rank"`
	Terminal bool `json:"terminal,omitempty"`
	// Phases maps phase name ("compute", "comm", ...) to its estimates;
	// phases never observed are omitted.
	Phases map[string]PhaseStats `json:"phases,omitempty"`
	// StepEWMASeconds is the rolling fused-decode-step time per unit of the
	// rank's own work (seconds per MAC in the cluster's feed, the step's
	// fixed cost counted as Profile.StepFixedWork more units) — the primary
	// skew signal, comparable across ranks however the round's sequences
	// were split between them.
	StepEWMASeconds float64 `json:"step_ewma_seconds,omitempty"`
	StepSamples     uint64  `json:"step_samples,omitempty"`
	BytesSent       int64   `json:"bytes_sent,omitempty"`
	BytesRecv       int64   `json:"bytes_recv,omitempty"`
	// Straggler is the detector's current persistent-straggler flag.
	Straggler bool `json:"straggler,omitempty"`
}

// Profile is a point-in-time snapshot of the store.
type Profile struct {
	// K is the worker count; Ranks holds K+1 entries (terminal last).
	K int `json:"k"`
	// Rounds counts completed fused decode rounds.
	Rounds uint64 `json:"rounds"`
	// Skew is the last round's max/mean ratio of per-work-unit step time
	// across the ranks that took part; SkewEWMA is its rolling average.
	Skew     float64 `json:"skew,omitempty"`
	SkewEWMA float64 `json:"skew_ewma,omitempty"`
	// StepFixedWork is the learned fixed cost of a fused step in work units
	// (see RecordRound); every rank's step time is compared per unit of its
	// work plus this. Zero until some rank's work has varied.
	StepFixedWork float64       `json:"step_fixed_work,omitempty"`
	Ranks         []RankProfile `json:"ranks"`
}

// StepSkew is the converged skew estimate: max/mean of the per-rank fused
// step EWMAs over worker ranks with samples. Smoother than the per-round
// Skew.
func (p Profile) StepSkew() float64 {
	var max, sum float64
	n := 0
	for _, r := range p.Ranks {
		if r.Terminal || r.StepSamples == 0 {
			continue
		}
		sum += r.StepEWMASeconds
		if r.StepEWMASeconds > max {
			max = r.StepEWMASeconds
		}
		n++
	}
	if n == 0 || sum <= 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// WorkerPhaseMean returns the lifetime seconds spent in phase, averaged
// over the K worker ranks — the per-device compute/communication split the
// breakdown experiment reports (0 when nothing was recorded).
func (p Profile) WorkerPhaseMean(phase trace.Phase) float64 {
	if p.K == 0 {
		return 0
	}
	var sum float64
	for _, r := range p.Ranks {
		if !r.Terminal {
			sum += r.Phases[phase.String()].TotalSeconds
		}
	}
	return sum / float64(p.K)
}

// Profile returns a consistent snapshot of all rolling estimates.
func (s *Store) Profile() Profile {
	if s == nil {
		return Profile{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Profile{
		K:             s.opts.K,
		Rounds:        s.rounds,
		Skew:          s.lastSkew,
		SkewEWMA:      s.skewEWMA,
		StepFixedWork: s.fixed,
		Ranks:         make([]RankProfile, len(s.phases)),
	}
	for r := range s.phases {
		rp := RankProfile{
			Rank:            r,
			Terminal:        r == s.opts.K,
			StepEWMASeconds: s.steps[r].ewma,
			StepSamples:     s.steps[r].samples,
			BytesSent:       s.sent[r],
			BytesRecv:       s.recv[r],
			Straggler:       s.straggler[r],
		}
		for i := range s.phases[r] {
			e := &s.phases[r][i]
			if e.samples == 0 {
				continue
			}
			if rp.Phases == nil {
				rp.Phases = make(map[string]PhaseStats)
			}
			rp.Phases[trace.Phase(i+1).String()] = PhaseStats{
				EWMASeconds:  e.ewma,
				MeanSeconds:  e.total.Seconds() / float64(e.samples),
				TotalSeconds: e.total.Seconds(),
				Samples:      e.samples,
			}
		}
		p.Ranks[r] = rp
	}
	return p
}
