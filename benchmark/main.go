// Command benchmark is the repository's performance instrument: it boots
// the serving stack in-process, drives the gateway's handler with seeded
// traffic, checks the outputs, and prints named end-to-end and per-layer
// metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"voltage"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the result object as the last line (driver contract); empty runs the full suite")
		seed         = flag.Int64("seed", 1, "seed of the request plan")
		seconds      = flag.Float64("seconds", 0, "timed window in seconds (0: each workload's suite window)")
		traceFlag    = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from the ladder and a traced run")
		quick        = flag.Bool("quick", false, "smoke run: 1 s windows, validity guards off, numbers meaningless")
		repeat       = flag.Int("repeat", 1, "suite: run n times and report median and quartiles per metric")
		compare      = flag.Bool("compare", false, "compare two result files: benchmark -compare A.json B.json")
		outDir       = flag.String("out", "bench_out", "directory for the result file and span dumps")
	)
	flag.Parse()
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	// One matmul goroutine per emulated device, as on a single-CPU edge
	// board; the devices themselves already run in parallel.
	voltage.SetComputeWorkers(1)

	code, err := func() (int, error) {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return 2, errors.New("usage: benchmark -compare A.json B.json")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *workloadName != "":
			w := findWorkload(*workloadName)
			if w == nil {
				return 2, fmt.Errorf("unknown workload %q", *workloadName)
			}
			if *quick {
				w = lightened(w)
			}
			cfg := newRunConfig(w, *seed, *seconds, *quick, procs, *outDir)
			return runContract(w, cfg, *traceFlag == 1)
		default:
			return runSuite(*seed, *seconds, *quick, *repeat, procs, *outDir)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runConfig fixes how one workload is run.
type runConfig struct {
	Seed      int64
	Warm, Dur time.Duration
	SetupReps int
	// Relaxed turns the validity guards off; set only by -quick.
	Relaxed bool
	Procs   int
	OutDir  string
}

const (
	// contractWarm is the untimed warm-up of a driver run. The suite
	// warms up for suiteWarm; the driver's time cap buys a shorter one.
	contractWarm = 2 * time.Second
	suiteWarm    = 3 * time.Second
	setupReps    = 9
)

func newRunConfig(w *workload, seed int64, seconds float64, quick bool, procs int, out string) runConfig {
	cfg := runConfig{Seed: seed, Warm: contractWarm, SetupReps: setupReps, Procs: procs, OutDir: out}
	if seconds <= 0 {
		seconds = w.SuiteSeconds
	}
	cfg.Dur = time.Duration(seconds * float64(time.Second))
	if quick {
		cfg.Warm, cfg.Dur, cfg.SetupReps, cfg.Relaxed = 300*time.Millisecond, time.Second, 1, true
	}
	return cfg
}

// result is one workload's outcome: what the driver reads, plus the
// metrics that apply to this workload only.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Problem is the first failed check, empty when Correct.
	Problem string `json:"problem,omitempty"`
}

// operatingSegment is the single segment of a contract run: the
// workload's traffic at its operating point.
func operatingSegment(w *workload, cfg runConfig) *segment {
	if w.closed() {
		return &segment{Name: "window", Warm: cfg.Warm, Dur: cfg.Dur, Operating: true}
	}
	seg := openSegment("operating", cfg.Seed, w.OperatingRPS, cfg.Warm, cfg.Dur, 0)
	seg.Operating = true
	return seg
}

// measured is one untraced window with its checks done.
type measured struct {
	Run     *segmentRun
	Stats   *windowStats
	Metrics metrics
	Failed  int
	Problem string
}

// measure runs one segment untraced, computes its end-to-end metrics and
// runs the output oracle and the accounting check on it.
func measure(s *sut, w *workload, pl *plan, seg *segment, cfg runConfig) (*measured, error) {
	run := runSegment(s, w, pl, seg, nil, false)
	rss := peakRSSMB() // before the oracle allocates reference activations
	ws := analyze(run, w)
	m, err := endToEnd(ws, w, cfg.Procs, cfg.Relaxed)
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, "MB", 0)
	out := &measured{Run: run, Stats: ws, Metrics: m}
	out.Failed, out.Problem = verify(s, run, ws, cfg.Seed)
	return out, nil
}

// verify counts what went wrong in a window: requests that failed or were
// shed, sampled outputs the solo reference disagrees with, and a client
// account the system's own counters do not match.
func verify(s *sut, run *segmentRun, ws *windowStats, seed int64) (failed int, problem string) {
	failed, problem = ws.Tally.failed(), ws.Tally.FirstBad
	if ws.Tally.Shed > 0 && problem == "" {
		problem = fmt.Sprintf("%d requests shed", ws.Tally.Shed)
	}
	if wrong, first := checkOutputs(s.eng.Cluster().Model(0), run, ws, seed); wrong > 0 {
		failed, problem = failed+wrong, first
	}
	if err := reconcile(run, ws); err != nil {
		failed, problem = failed+1, err.Error()
	}
	return failed, problem
}

// runContract runs one workload the way the driver asks and prints the
// result object as the last line of standard output.
func runContract(w *workload, cfg runConfig, traced bool) (int, error) {
	var (
		res *result
		err error
	)
	if traced {
		res, err = runLayers(w, cfg)
	} else {
		res, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		return 1, err
	}
	printMetrics(os.Stdout, w.Name, res.Metrics)
	contract := contractEndToEnd
	if traced {
		contract = contractPerLayer
	}
	line, err := contractLine(res, contract)
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	if !res.Correct {
		return 1, fmt.Errorf("%s: %s", w.Name, res.Problem)
	}
	return 0, nil
}

// runEndToEnd measures one workload's operating point untraced.
func runEndToEnd(w *workload, cfg runConfig) (*result, error) {
	s, pl, setupS, err := timedSetup(w, cfg.Seed, sutK, nil, cfg.SetupReps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	got, err := measure(s, w, pl, operatingSegment(w, cfg), cfg)
	if err != nil {
		return nil, err
	}
	got.Metrics.set("setup_s", setupS, "s", cfg.SetupReps)
	return &result{
		Workload: w.Name, Seed: cfg.Seed, Metrics: got.Metrics,
		Correct: got.Failed == 0, Attempted: got.Stats.Tally.Attempted, Failed: got.Failed, Problem: got.Problem,
	}, nil
}

// printMetrics prints one "workload metric value unit" line per metric.
func printMetrics(f io.Writer, workload string, m metrics) {
	for _, name := range sortedKeys(m) {
		v := m[name]
		if v.N > 0 {
			fmt.Fprintf(f, "%s %s %.6g %s n=%d\n", workload, name, v.Value, v.Unit, v.N)
		} else {
			fmt.Fprintf(f, "%s %s %.6g %s\n", workload, name, v.Value, v.Unit)
		}
	}
}

// contractLine renders the driver's result object: exactly the metrics
// BENCHMARK.json lists for this mode, each with value and unit.
func contractLine(res *result, names []string) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, name := range names {
		v, ok := res.Metrics[name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, name)
		}
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
