package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"voltage"
)

// counts is the system's own accounting at one instant: scheduler totals
// and the engine's counters, plus the batch-size histogram's sum and count.
type counts struct {
	Sched  voltage.SchedulerStats
	Engine map[string]float64
}

func snapshotCounts(s *sut) counts {
	snap := s.eng.Metrics()
	c := snap.Counters
	if h, ok := snap.Histograms["voltage_batch_size"]; ok {
		c["voltage_batch_size_sum"] = h.Sum
		c["voltage_batch_size_count"] = float64(h.Count)
	}
	return counts{Sched: s.gw.Scheduler().Stats(), Engine: c}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or rate (0 when the
	// number is not a statistic over samples).
	N int `json:"n,omitempty"`
}

// metrics maps metric name to value, for one workload.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// invalidRun reports a run whose numbers must not be used.
type invalidRun struct{ reason string }

func (e *invalidRun) Error() string { return "invalid run: " + e.reason }

func invalidf(format string, a ...any) error {
	return &invalidRun{reason: fmt.Sprintf(format, a...)}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// eligible reports whether n samples support percentile p (0<p<1).
func eligible(n int, p float64) bool {
	return int(float64(n)*(1-p)+1e-9) >= minBeyond && int(float64(n)*p+1e-9) >= minBeyond
}

// percentile returns the p-quantile of xs by linear interpolation between
// order statistics. xs must be sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(dist(xs).sorted(), 0.5) }

// dist is a set of latency samples in milliseconds.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// pct reports percentile p of d under name, or an invalid-run error when
// too few samples lie beyond it. relaxed skips the rule (smoke runs).
func (d dist) pct(m metrics, name string, p float64, unit string, relaxed bool) error {
	if len(d) == 0 || (!relaxed && !eligible(len(d), p)) {
		return invalidf("%s: %d samples do not support p%g (need %d beyond it)", name, len(d), p*100, minBeyond)
	}
	m.set(name, percentile(d.sorted(), p), unit, len(d))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is a parsed response.
type outcome struct {
	OK   bool
	Shed bool // 429/503: refused by admission control
	// Bad is set when the response is malformed for its request: wrong
	// status, wrong line count, missing summary line.
	Bad    string
	Tokens []int // generate: prompt + continuation
	Class  int
	Logits []float32
	// Phase times the engine reports about itself, in milliseconds.
	QueueMS, BatchWaitMS, PrefillMS, DecodeMS float64
}

// parseResponse checks a response structurally against its request and
// extracts the fields the oracle and the time budget need.
func parseResponse(sm *sample) outcome {
	var o outcome
	switch {
	case sm.Status == http.StatusTooManyRequests || sm.Status == http.StatusServiceUnavailable:
		o.Shed = true
		return o
	case sm.Status != http.StatusOK:
		o.Bad = fmt.Sprintf("status %d", sm.Status)
		return o
	}
	if sm.Req.Kind == kindClassify {
		var r struct {
			Class     int       `json:"class"`
			Logits    []float32 `json:"logits"`
			Tokens    int       `json:"tokens"`
			QueueMS   float64   `json:"queue_ms"`
			LatencyMS float64   `json:"latency_ms"`
		}
		if err := json.Unmarshal(sm.Body, &r); err != nil {
			o.Bad = "classify body: " + err.Error()
			return o
		}
		if r.Tokens != len(sm.Req.Prompt) || len(r.Logits) != benchModel().NumClasses {
			o.Bad = fmt.Sprintf("classify echoed %d tokens, %d logits", r.Tokens, len(r.Logits))
			return o
		}
		o.OK, o.Class, o.Logits = true, r.Class, r.Logits
		o.QueueMS, o.PrefillMS = r.QueueMS, r.LatencyMS
		return o
	}
	lines := bytes.Split(bytes.TrimRight(sm.Body, "\n"), []byte{'\n'})
	steps := sm.Req.Steps
	if len(lines) != steps+1 || len(sm.Stamps) != steps+1 {
		o.Bad = fmt.Sprintf("generate: %d lines, %d flushes for %d steps", len(lines), len(sm.Stamps), steps)
		return o
	}
	var done struct {
		Done        bool    `json:"done"`
		Tokens      []int   `json:"tokens"`
		Error       string  `json:"error"`
		QueueMS     float64 `json:"queue_ms"`
		BatchWaitMS float64 `json:"batch_wait_ms"`
		PrefillMS   float64 `json:"prefill_ms"`
		DecodeMS    float64 `json:"decode_ms"`
	}
	if err := json.Unmarshal(lines[steps], &done); err != nil || !done.Done || done.Error != "" {
		o.Bad = fmt.Sprintf("generate: bad summary line %q", lines[steps])
		return o
	}
	if len(done.Tokens) != len(sm.Req.Prompt)+steps {
		o.Bad = fmt.Sprintf("generate: %d tokens for prompt %d + %d steps", len(done.Tokens), len(sm.Req.Prompt), steps)
		return o
	}
	for i := 0; i < steps; i++ {
		var tl struct {
			Token *int `json:"token"`
			Index int  `json:"index"`
		}
		if err := json.Unmarshal(lines[i], &tl); err != nil || tl.Token == nil || tl.Index != i ||
			*tl.Token != done.Tokens[len(sm.Req.Prompt)+i] {
			o.Bad = fmt.Sprintf("generate: token line %d is %q", i, lines[i])
			return o
		}
	}
	o.OK, o.Tokens = true, done.Tokens
	o.QueueMS, o.BatchWaitMS, o.PrefillMS, o.DecodeMS = done.QueueMS, done.BatchWaitMS, done.PrefillMS, done.DecodeMS
	return o
}

// tally is the client-side account of one window.
type tally struct {
	Attempted, Shed, Bad int
	// InSLO counts OK requests whose first output came within the limit
	// of their class. A shed or failed request misses.
	InSLO    int
	FirstBad string
}

func (t tally) failed() int { return t.Shed + t.Bad }

// windowStats is everything the end-to-end metrics of one timed window
// are computed from.
type windowStats struct {
	Seconds  float64
	Tally    tally
	Outputs  int // tokens streamed + classifications answered inside the window
	Done     int // OK requests that finished inside the window
	TTFT     dist
	ITL      dist
	Classify dist // classify requests: time to full response
	GenTTFT  dist // generate requests: time to first token
	LagMS    dist // open loop: how late each request was sent
	CPUFrac  float64
	Outcomes []outcome // parallel to run.Samples
}

// analyze turns a segment's samples into window statistics. Latencies come
// from requests that started inside the timed window; rates count what was
// delivered inside it.
func analyze(run *segmentRun, w *workload) *windowStats {
	begin, end := run.Begin.At, run.End.At
	ws := &windowStats{
		Seconds:  end.Sub(begin).Seconds(),
		Outcomes: make([]outcome, len(run.Samples)),
	}
	if cpu := (run.End.CPU - run.Begin.CPU).Seconds(); ws.Seconds > 0 {
		ws.CPUFrac = cpu / ws.Seconds
	}
	inWindow := func(t time.Time) bool { return !t.Before(begin) && t.Before(end) }
	lastEnd := make(map[int]time.Time) // closed loop: previous response per client
	for i := range run.Samples {
		sm := &run.Samples[i]
		o := parseResponse(sm)
		ws.Outcomes[i] = o
		timed := inWindow(sm.Start)
		if timed {
			ws.Tally.Attempted++
			switch {
			case o.Shed:
				ws.Tally.Shed++
			case !o.OK:
				ws.Tally.Bad++
				if ws.Tally.FirstBad == "" {
					ws.Tally.FirstBad = o.Bad
				}
			}
			if !w.closed() {
				ws.LagMS = append(ws.LagMS, ms(sm.Sent.Sub(sm.Start)))
			}
		}
		if !o.OK {
			continue
		}
		if inWindow(sm.End) {
			ws.Done++
		}
		if sm.Req.Kind == kindClassify {
			if inWindow(sm.End) {
				ws.Outputs++
			}
			if timed {
				d := ms(sm.End.Sub(sm.Start))
				ws.TTFT, ws.Classify = append(ws.TTFT, d), append(ws.Classify, d)
				if d <= w.SLO.ClassifyMS {
					ws.Tally.InSLO++
				}
			}
			// A classify-only caller's outputs are whole responses: the
			// gap between them is its inter-output time.
			if w.Traffic.ClassifyShare == 1 {
				if prev, ok := lastEnd[sm.Client]; ok && timed {
					ws.ITL = append(ws.ITL, ms(sm.End.Sub(prev)))
				}
				lastEnd[sm.Client] = sm.End
			}
			continue
		}
		tokens := sm.Stamps[:sm.Req.Steps] // the last flush is the summary line
		for j, t := range tokens {
			if inWindow(t) {
				ws.Outputs++
			}
			if timed && j > 0 {
				ws.ITL = append(ws.ITL, ms(t.Sub(tokens[j-1])))
			}
		}
		if timed {
			d := ms(tokens[0].Sub(sm.Start))
			ws.TTFT, ws.GenTTFT = append(ws.TTFT, d), append(ws.GenTTFT, d)
			if d <= w.SLO.FirstTokenMS {
				ws.Tally.InSLO++
			}
		}
	}
	return ws
}

// Validity limits. A run outside them measured the harness or the host,
// not the system, and reports nothing.
const (
	// maxLagP90MS bounds how late the open loop may send. The limit is on
	// the 90th percentile, not the 99th: this host's VM stalls everything
	// for 50-150 ms about once in ten runs, which a p99 limit would turn
	// into an aborted run although the stall is already in the numbers
	// (requests are timed from when they were due). p99 is reported.
	maxLagP90MS     = 10.0
	maxEdgeCPUShare = 0.70 // of GOMAXPROCS, while devices are paced
	minClosedDone   = 100  // requests completed by a closed-loop window
)

// endToEnd computes the end-to-end metrics of one window, and the tail
// percentiles the window's sample count supports. relaxed turns the
// validity guards off (smoke runs whose numbers are discarded).
func endToEnd(ws *windowStats, w *workload, procs int, relaxed bool) (metrics, error) {
	m := metrics{}
	if ws.Tally.Attempted == 0 || ws.Seconds <= 0 {
		return nil, invalidf("%s: empty window", w.Name)
	}
	m.set("goodput_req_s", float64(ws.Done)/ws.Seconds, "1/s", ws.Done)
	m.set("goodput_tok_s", float64(ws.Outputs)/ws.Seconds, "tok/s", ws.Outputs)
	m.set("slo_ok_frac", float64(ws.Tally.InSLO)/float64(ws.Tally.Attempted), "frac", ws.Tally.Attempted)
	if err := ws.TTFT.pct(m, "ttft_ms_p50", 0.50, "ms", relaxed); err != nil {
		return nil, err
	}
	if err := ws.ITL.pct(m, "itl_ms_p50", 0.50, "ms", relaxed); err != nil {
		return nil, err
	}
	// Tails, per class where the workload mixes classes. They are read
	// from the full suite's longer windows; a driver run reports those
	// its sample count supports and gates on none of them.
	type tail struct {
		d    dist
		name string
		p    float64
	}
	tails := []tail{{ws.TTFT, "ttft_ms_p90", 0.90}, {ws.ITL, "itl_ms_p90", 0.90}, {ws.ITL, "itl_ms_p95", 0.95}}
	if len(ws.Classify) > 0 && len(ws.GenTTFT) > 0 {
		tails = append(tails,
			tail{ws.Classify, "classify_ms_p50", 0.50}, tail{ws.Classify, "classify_ms_p90", 0.90},
			tail{ws.GenTTFT, "gen_ttft_ms_p50", 0.50}, tail{ws.GenTTFT, "gen_ttft_ms_p90", 0.90})
	}
	for _, q := range tails {
		if relaxed || eligible(len(q.d), q.p) {
			_ = q.d.pct(m, q.name, q.p, "ms", relaxed)
		}
	}
	m.set("loadgen.cpu_cores", ws.CPUFrac, "cores", 0)
	if !w.closed() {
		_ = ws.LagMS.pct(m, "loadgen.lag_ms_p90", 0.90, "ms", true)
		_ = ws.LagMS.pct(m, "loadgen.lag_ms_p99", 0.99, "ms", true)
	}
	if relaxed {
		return m, nil
	}
	if w.closed() && ws.Done < minClosedDone {
		return nil, invalidf("%s: closed-loop window completed %d requests, need %d", w.Name, ws.Done, minClosedDone)
	}
	if v := m["loadgen.lag_ms_p90"].Value; !w.closed() && v > maxLagP90MS {
		return nil, invalidf("%s: open-loop sends ran %.1f ms late at p90 (limit %.0f)", w.Name, v, maxLagP90MS)
	}
	if w.Profile.DeviceFlops > 0 && ws.CPUFrac > maxEdgeCPUShare*float64(procs) {
		return nil, invalidf("%s: %.2f cores busy of %d while devices are paced (limit %.0f%%): pacing no longer sets the time",
			w.Name, ws.CPUFrac, procs, maxEdgeCPUShare*100)
	}
	return m, nil
}
