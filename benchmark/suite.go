package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// spec names an end-to-end metric and the bound by which it may worsen
// before a change counts as a regression. BENCHMARK.json carries the same
// table for the driver; TestBenchmarkJSONMatchesSpecs keeps them equal.
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Abs makes Bound an absolute difference (shares near one, where a
	// relative bound would be the same number but read wrongly).
	Abs bool
	// Step makes any worsening a regression: the metric takes a few
	// discrete values.
	Step bool
	// SuiteOnly metrics exist only in the full suite, not in driver runs.
	SuiteOnly bool
}

var endToEndSpecs = []spec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_tok_s", Unit: "tok/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_req_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ttft_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "itl_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "slo_ok_frac", Unit: "frac", Better: "higher", Bound: 0.15, Abs: true},
	{Name: "ttft_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, SuiteOnly: true},
	{Name: "itl_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, SuiteOnly: true},
	{Name: "itl_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15, SuiteOnly: true},
	{Name: "classify_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, SuiteOnly: true},
	{Name: "classify_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, SuiteOnly: true},
	{Name: "gen_ttft_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, SuiteOnly: true},
	{Name: "gen_ttft_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, SuiteOnly: true},
	{Name: "slo_rate_rps", Unit: "1/s", Better: "higher", Step: true, SuiteOnly: true},
	{Name: "overload_goodput_tok_s", Unit: "tok/s", Better: "higher", Bound: 0.10, SuiteOnly: true},
}

// contractEndToEnd and contractPerLayer are the metric names of the
// driver's two result objects, in BENCHMARK.json's order.
var contractEndToEnd = func() []string {
	var names []string
	for _, s := range endToEndSpecs {
		if !s.SuiteOnly {
			names = append(names, s.Name)
		}
	}
	return names
}()

// Every per-layer metric of the driver's list is measured on every
// workload: the ladder and the K=1 pass do not depend on the workload's
// traffic mix, and the traced window's quantities that only streams have
// are rates and shares, for which zero is a measurement.
var contractPerLayer = []string{
	"tensor.matmul_prefill_ns", "tensor.matmul_decode_ns", "tensor.matmul_gmacs",
	"tensor.softmax_ns", "tensor.layernorm_ns", "tensor.codec_encode_ns", "tensor.codec_decode_ns",
	"quantize.roundtrip_ns",
	"attention.forward_partition_ns", "attention.prefill_state_ns",
	"attention.step_batch_ns", "attention.step_batch_allocs",
	"model.embed_ns", "model.prefill_ns", "model.lm_head_ns", "model.decode_step_solo_ns",
	"model.decode_step_batch_ns", "model.decode_step_batch_allocs",
	"comm.frame_roundtrip_ns", "comm.allgather_host_ns", "comm.allgather_edge_ns",
	"comm.allgather_over_floor_frac", "comm.allgather_bytes",
	"netem.sleep_overshoot_us_p50", "netem.sleep_overshoot_us_p99",
	"sched.do_ns", "sched.do_contended_ns",
	"server.classify_overhead_ns", "server.generate_chunk_ns",
	"cluster.infer_floor_ns", "cluster.step_round_ns", "cluster.step_overhead_ns",
	"server.self_ms_p50", "server.self_frac",
	"sched.queue_wait_ms_p50", "sched.queue_frac", "sched.shed_frac",
	"cluster.prefill_ms_p50", "cluster.prefill_frac", "cluster.prefill_over_floor_frac",
	"cluster.batch_wait_frac", "cluster.decode_frac", "cluster.decode_tok_s_p50",
	"cluster.fused_width_mean", "cluster.fused_steps", "cluster.itl_stall_frac",
	"cluster.k1_goodput_tok_s", "cluster.k1_ttft_ms_p50",
	"comm.worker_send_s", "comm.worker_recv_wait_s", "comm.worker_recv_wait_skew",
	"comm.terminal_recv_wait_s", "comm.bytes_per_req", "comm.msgs_per_req",
	"runtime.cpu_s_per_ktok", "runtime.allocs_per_tok", "runtime.alloc_kb_per_tok", "runtime.gc_pause_ms",
	"trace.residual_frac",
}

// What a rate step of the open loop must hold to count towards
// slo_rate_rps.
const (
	sloShare     = 0.90
	sloFailShare = 0.01
	sloBacklog   = 8 // mean in-flight late in a step may exceed mid-step's by this
)

// suiteFile is what a suite run writes and -compare reads.
type suiteFile struct {
	Schema string                `json:"schema"`
	Seed   int64                 `json:"seed"`
	Quick  bool                  `json:"quick,omitempty"`
	Runs   []map[string]*result  `json:"runs"`
	Stats  map[string]suiteStats `json:"summary,omitempty"`
}

// suiteStats is one (workload, metric) row over the repeats.
type suiteStats map[string]quartiles

type quartiles struct {
	Q1, Median, Q3 float64
	Unit           string
	N              int
}

const suiteSchema = "voltage-bench/v1"

// runSuite runs every workload with its full windows, the ladder, a
// traced window and a K=1 pass each, repeat times, and writes the result
// file and the span dumps.
func runSuite(seed int64, seconds float64, quick bool, repeat, procs int, outDir string) (int, error) {
	file := suiteFile{Schema: suiteSchema, Seed: seed, Quick: quick}
	code := 0
	for rep := 0; rep < max(repeat, 1); rep++ {
		run := map[string]*result{}
		budget := 4 * ladderBudget
		if quick {
			budget = time.Microsecond
		}
		lm := metrics{}
		if err := ladder(lm, budget); err != nil {
			return 1, err
		}
		run["ladder"] = &result{Workload: "ladder", Seed: seed, Correct: true, Metrics: lm}
		printMetrics(os.Stdout, "ladder", lm)
		for _, w := range workloads {
			cfg := newRunConfig(w, seed, seconds, quick, procs, outDir)
			cfg.Warm = suiteWarm
			if quick {
				cfg.Warm, w = 300*time.Millisecond, lightened(w)
			}
			res, err := suiteWorkload(w, cfg)
			if err != nil {
				return 1, err
			}
			run[w.Name] = res
			printMetrics(os.Stdout, w.Name, res.Metrics)
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, res.Problem)
				code = 1
			}
		}
		file.Runs = append(file.Runs, run)
	}
	file.Stats = summarize(file.Runs)
	if len(file.Runs) > 1 {
		printSummary(os.Stdout, file.Stats)
	}
	path, err := writeJSON(outDir, "result.json", file)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	return code, nil
}

// suiteWorkload runs one workload in full: every phase untraced, then a
// traced window and a K=1 pass at the operating point.
func suiteWorkload(w *workload, cfg runConfig) (*result, error) {
	s, pl, setupS, err := timedSetup(w, cfg.Seed, sutK, nil, cfg.SetupReps)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Seed: cfg.Seed, Correct: true}
	var op *measured
	sloRate, overload, overloadShed := 0.0, 0.0, 0.0
	for _, seg := range suiteSegments(w, cfg) {
		pcfg := cfg
		// Only the operating point must satisfy the validity guards: the
		// other phases exist to find where the system stops coping.
		pcfg.Relaxed = cfg.Relaxed || !seg.Operating
		got, err := measure(s, w, pl, seg, pcfg)
		if err != nil {
			s.close()
			return nil, err
		}
		// Overload sheds by design; everything else it serves must still
		// be right, and the earlier phases must not fail at all.
		overloaded := seg.RPS > w.OperatingRPS
		failed := got.Failed
		if overloaded {
			failed -= got.Stats.Tally.Shed
		}
		if failed > 0 {
			res.Correct, res.Problem = false, fmt.Sprintf("%s: %s", seg.Name, got.Problem)
		}
		if !overloaded {
			res.Attempted += got.Stats.Tally.Attempted
			res.Failed += got.Failed
		}
		if seg.Operating {
			op = got
		}
		if !w.closed() {
			if meetsSLO(got) && seg.RPS > sloRate {
				sloRate = seg.RPS
			}
			if overloaded {
				overload = float64(got.Stats.Outputs) / got.Stats.Seconds
				overloadShed = float64(got.Stats.Tally.Shed) / float64(got.Stats.Tally.Attempted)
			}
		}
	}
	s.close()
	res.Metrics = op.Metrics
	res.Metrics.set("setup_s", setupS, "s", cfg.SetupReps)
	if !w.closed() {
		res.Metrics.set("slo_rate_rps", sloRate, "1/s", 0)
		res.Metrics.set("overload_goodput_tok_s", overload, "tok/s", 0)
		res.Metrics.set("overload_shed_frac", overloadShed, "frac", 0)
	}
	tcfg := cfg
	tcfg.Dur = min(cfg.Dur, 10*time.Second)
	tw, err := tracedWindow(w, tcfg, res.Metrics)
	if err != nil {
		return nil, err
	}
	if tw.Failed > 0 {
		res.Correct, res.Problem = false, "traced window: "+tw.Problem
	}
	tracedGoodput := float64(tw.Stats.Outputs) / tw.Stats.Seconds
	res.Metrics.set("trace.overhead_frac", 1-tracedGoodput/op.Metrics["goodput_tok_s"].Value, "frac", 0)
	kcfg := cfg
	kcfg.Dur = min(cfg.Dur, 8*time.Second)
	if err := k1Pass(w, kcfg, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// suiteSegments lays out a workload's timed windows for the full suite:
// one for a closed loop, one per rate step for the open loop, each with
// its own warm-up and followed by a drain.
func suiteSegments(w *workload, cfg runConfig) []*segment {
	if w.closed() {
		return []*segment{operatingSegment(w, cfg)}
	}
	var segs []*segment
	deck := 0
	for _, ph := range w.SuitePhases {
		dur := time.Duration(ph.Seconds / w.SuiteSeconds * float64(cfg.Dur))
		seg := openSegment(fmt.Sprintf("rps%g", ph.RPS), cfg.Seed, ph.RPS, cfg.Warm, dur, deck)
		seg.Operating = ph.Operating
		segs = append(segs, seg)
		deck += (len(seg.Arrivals) + deckBlock - 1) / deckBlock * deckBlock
	}
	return segs
}

// meetsSLO reports whether an open-loop phase held the service level —
// nine in ten requests sent got their first output in time, at most one
// in a hundred failed — without a growing backlog.
func meetsSLO(got *measured) bool {
	ws, run := got.Stats, got.Run
	// Backlog: requests in flight when the last fifth of the step's
	// arrivals were sent, against the middle fifth.
	begin, length := run.Begin.At, run.End.At.Sub(run.Begin.At).Seconds()
	var midSum, midN, endSum, endN float64
	for i := range run.Samples {
		sm := &run.Samples[i]
		switch at := sm.Start.Sub(begin).Seconds() / length; {
		case at >= 0.4 && at < 0.6:
			midSum, midN = midSum+float64(sm.Inflight), midN+1
		case at >= 0.8 && at < 1:
			endSum, endN = endSum+float64(sm.Inflight), endN+1
		}
	}
	if midN == 0 || endN == 0 {
		return false
	}
	n := float64(ws.Tally.Attempted)
	return float64(ws.Tally.InSLO)/n >= sloShare && float64(ws.Tally.failed())/n <= sloFailShare &&
		endSum/endN <= midSum/midN+sloBacklog
}

// summarize reduces repeats to median and quartiles per (workload, metric).
func summarize(runs []map[string]*result) map[string]suiteStats {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, run := range runs {
		for wl, res := range run {
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[wl][name] = append(values[wl][name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	out := map[string]suiteStats{}
	for wl, byName := range values {
		out[wl] = suiteStats{}
		for name, vs := range byName {
			q := quartilesOf(vs)
			q.Unit = units[name]
			out[wl][name] = q
		}
	}
	return out
}

// quartilesOf matches Python's statistics.quantiles(values, n=4), which
// is what the driver judges spreads with; one value is its own quartiles.
func quartilesOf(vs []float64) quartiles {
	s := dist(vs).sorted()
	n := len(s)
	if n == 1 {
		return quartiles{Q1: s[0], Median: s[0], Q3: s[0], N: 1}
	}
	at := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return quartiles{Q1: at(1), Median: at(2), Q3: at(3), N: n}
}

func printSummary(f io.Writer, stats map[string]suiteStats) {
	for _, wl := range sortedKeys(stats) {
		for _, name := range sortedKeys(stats[wl]) {
			q := stats[wl][name]
			fmt.Fprintf(f, "summary %s %s median %.6g q1 %.6g q3 %.6g %s n=%d\n", wl, name, q.Median, q.Q1, q.Q3, q.Unit, q.N)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict is -compare's judgement of one (workload, metric) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegress    verdict = "regress"
	verdictUnresolved verdict = "unresolved"
)

// judge applies sp's bound to the runs of the parent (a) and the change
// (b). A row whose run-to-run spread exceeds the bound is unresolved, not
// unchanged, unless every run of one side beats every run of the other.
func judge(sp spec, a, b []float64) (verdict, float64) {
	qa, qb := quartilesOf(a), quartilesOf(b)
	sign := 1.0 // worse = b above a
	if sp.Better == "higher" {
		sign = -1
	}
	worse := sign * (qb.Median - qa.Median)
	spread := max(qa.Q3-qa.Q1, qb.Q3-qb.Q1)
	if !sp.Abs && qa.Median != 0 {
		worse /= qa.Median
		spread /= qa.Median
	}
	if sp.Step {
		if worse > 0 {
			return verdictRegress, worse
		}
		return verdictOK, worse
	}
	if spread > sp.Bound {
		minA, maxA := minMax(a)
		minB, maxB := minMax(b)
		bBetter := (sign > 0 && maxB < minA) || (sign < 0 && minB > maxA)
		bWorse := (sign > 0 && minB > maxA) || (sign < 0 && maxB < minA)
		switch {
		case bBetter:
			return verdictOK, worse
		case bWorse && worse > sp.Bound:
			return verdictRegress, worse
		default:
			return verdictUnresolved, worse
		}
	}
	if worse > sp.Bound {
		return verdictRegress, worse
	}
	return verdictOK, worse
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

func loadSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != suiteSchema || len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: not a %s result with runs", path, suiteSchema)
	}
	if f.Quick {
		return nil, fmt.Errorf("%s: a -quick run carries no usable numbers", path)
	}
	return &f, nil
}

// compareFiles judges every (workload, end-to-end metric) row of two
// result files, each row on its own, and returns exit code 1 on any
// regression. Edge and host rows are never combined.
func compareFiles(out io.Writer, pathA, pathB string) (int, error) {
	fa, err := loadSuite(pathA)
	if err != nil {
		return 2, err
	}
	fb, err := loadSuite(pathB)
	if err != nil {
		return 2, err
	}
	column := func(f *suiteFile, wl, name string) []float64 {
		var vs []float64
		for _, run := range f.Runs {
			if res := run[wl]; res != nil {
				if v, ok := res.Metrics[name]; ok {
					vs = append(vs, v.Value)
				}
			}
		}
		return vs
	}
	code := 0
	for _, w := range workloads {
		for _, sp := range endToEndSpecs {
			a, b := column(fa, w.Name, sp.Name), column(fb, w.Name, sp.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse := judge(sp, a, b)
			if v == verdictRegress {
				code = 1
			}
			fmt.Fprintf(out, "%-10s %s %s %.6g -> %.6g %s (worse by %+.3g, bound %g, runs %d/%d)\n",
				v, w.Name, sp.Name, quartilesOf(a).Median, quartilesOf(b).Median, sp.Unit, worse, sp.Bound, len(a), len(b))
		}
	}
	return code, nil
}
