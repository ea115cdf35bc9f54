package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voltage/internal/sched"
	"voltage/internal/server"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := buildPlan(w, 1).digest(), buildPlan(w, 1).digest(), buildPlan(w, 2).digest()
		if a != b {
			t.Errorf("%s: equal seeds gave plans %x and %x", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", w.Name)
		}
	}
}

func TestHostAndEdgeGenerateShareOnePlan(t *testing.T) {
	edge, host := findWorkload("generate_edge"), findWorkload("generate_host")
	for seed := int64(1); seed <= 3; seed++ {
		pe, ph := buildPlan(edge, seed), buildPlan(host, seed)
		if len(pe.Deck) != len(ph.Deck) {
			t.Fatalf("seed %d: decks of %d and %d requests", seed, len(pe.Deck), len(ph.Deck))
		}
		for i := range pe.Deck {
			if !bytes.Equal(pe.Deck[i].Body, ph.Deck[i].Body) {
				t.Fatalf("seed %d: request %d differs between profiles", seed, i)
			}
		}
	}
}

// Seeds change the order of requests, never their volume: every block of
// the deck holds the same class mix and covers each length range evenly.
func TestDeckBlocksCarryEqualVolume(t *testing.T) {
	w := findWorkload("mixed_open_edge")
	var first [2]int
	for seed := int64(1); seed <= 4; seed++ {
		pl := buildPlan(w, seed)
		for b := 0; b+deckBlock <= len(pl.Deck); b += deckBlock {
			classify, tokens := 0, 0
			for _, r := range pl.Deck[b : b+deckBlock] {
				if r.Kind == kindClassify {
					classify++
					if len(r.Prompt) < w.Traffic.ClassifyPrompt.Lo || len(r.Prompt) > w.Traffic.ClassifyPrompt.Hi {
						t.Fatalf("classify prompt of %d tokens outside %v", len(r.Prompt), w.Traffic.ClassifyPrompt)
					}
				} else if r.Steps < w.Traffic.GenSteps.Lo || r.Steps > w.Traffic.GenSteps.Hi {
					t.Fatalf("%d steps outside %v", r.Steps, w.Traffic.GenSteps)
				}
				tokens += len(r.Prompt) + r.Steps
			}
			if seed == 1 && b == 0 {
				first = [2]int{classify, tokens}
			}
			if classify != first[0] {
				t.Fatalf("seed %d block %d: %d classify requests, first block had %d", seed, b/deckBlock, classify, first[0])
			}
			// One sample per stratum bounds a block's volume to within one
			// stratum width per request.
			if d := math.Abs(float64(tokens-first[1])) / float64(first[1]); d > 0.08 {
				t.Fatalf("seed %d block %d: %d tokens, first block had %d", seed, b/deckBlock, tokens, first[1])
			}
		}
	}
}

func TestArrivalsFixTheCount(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		got := arrivals(rand.New(rand.NewSource(seed)), 12, 20)
		if len(got) != 240 {
			t.Fatalf("seed %d: %d arrivals, want 240", seed, len(got))
		}
		for i, at := range got {
			if at < 0 || at >= 20*time.Second || (i > 0 && at < got[i-1]) {
				t.Fatalf("seed %d: arrival %d at %v out of order or range", seed, i, at)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	}
	for _, c := range cases {
		if got := eligible(c.n, c.p); got != c.want {
			t.Errorf("eligible(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	m := metrics{}
	if err := make(dist, 99).pct(m, "x_p90", 0.9, "ms", false); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	if err := make(dist, 99).pct(m, "x_p90", 0.9, "ms", true); err != nil {
		t.Errorf("relaxed p90 of 99 samples: %v", err)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

// The recorder stamps every flush: one per token line plus the summary.
func TestRecorderStampsEveryFlush(t *testing.T) {
	const steps = 7
	gw, err := server.New(&stubBackend{cfg: benchModel()}, server.Options{
		Sched: sched.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	req := &planReq{Kind: kindGenerate, Prompt: []int{1, 2, 3}, Steps: steps}
	req.Body = encodeBody(req)
	hreq, err := http.NewRequest(http.MethodPost, req.Kind.path(), bytes.NewReader(req.Body))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(steps + 1)
	gw.Handler().ServeHTTP(rec, hreq)
	if len(rec.stamps) != steps+1 {
		t.Fatalf("%d flush stamps for %d steps, want %d", len(rec.stamps), steps, steps+1)
	}
	sm := &sample{Req: req, Stamps: rec.stamps, Status: rec.status, Body: rec.body.Bytes()}
	if o := parseResponse(sm); !o.OK || len(o.Tokens) != 3+steps {
		t.Fatalf("stub stream did not parse: %+v", o)
	}
	// A stream one line short is malformed, not slow.
	sm.Body = sm.Body[bytes.IndexByte(sm.Body, '\n')+1:]
	if o := parseResponse(sm); o.OK || o.Bad == "" {
		t.Fatal("a truncated stream parsed as OK")
	}
}

func TestSelfTimeOnASyntheticTree(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := spanRec{Start: at(0), End: at(100)}
	cases := []struct {
		name     string
		children []spanRec
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []spanRec{{Start: at(10), End: at(70)}}, 40 * time.Millisecond},
		{"disjoint", []spanRec{{Start: at(60), End: at(80)}, {Start: at(10), End: at(30)}}, 60 * time.Millisecond},
		{"overlapping count once", []spanRec{{Start: at(10), End: at(50)}, {Start: at(40), End: at(70)}}, 40 * time.Millisecond},
		{"clipped to parent", []spanRec{{Start: at(-20), End: at(10)}, {Start: at(90), End: at(130)}}, 80 * time.Millisecond},
		{"outside parent", []spanRec{{Start: at(120), End: at(130)}}, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartilesOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 {
		t.Errorf("quartiles %+v, want 2.75 5.5 8.25", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartilesOf([]float64{1, 2, 4}); q.Q1 != 1 || q.Median != 2 || q.Q3 != 4 {
		t.Errorf("quartiles %+v, want 1 2 4", q)
	}
}

func specNamed(t *testing.T, name string) spec {
	t.Helper()
	for _, s := range endToEndSpecs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no spec %s", name)
	return spec{}
}

func TestJudgeAppliesEachBound(t *testing.T) {
	tight := func(v float64) []float64 { return []float64{v * 0.999, v, v * 1.001} }
	flat := func(v float64) []float64 { return []float64{v, v, v} }
	ttft, tok, slo := specNamed(t, "ttft_ms_p50"), specNamed(t, "goodput_tok_s"), specNamed(t, "slo_ok_frac")
	cases := []struct {
		sp   spec
		a, b []float64
		want verdict
	}{
		// Relative bound, lower is better.
		{ttft, tight(100), tight(100 * (1 + 0.9*ttft.Bound)), verdictOK},
		{ttft, tight(100), tight(100 * (1 + 1.2*ttft.Bound)), verdictRegress},
		{ttft, tight(100), tight(60), verdictOK},
		// Relative bound, higher is better.
		{tok, tight(150), tight(150 * (1 - 0.9*tok.Bound)), verdictOK},
		{tok, tight(150), tight(150 * (1 - 1.2*tok.Bound)), verdictRegress},
		// A spread wider than the bound leaves the row unresolved …
		{tok, []float64{100, 150, 200}, []float64{98, 149, 201}, verdictUnresolved},
		// … unless every run of one side beats every run of the other.
		{tok, []float64{100, 150, 200}, []float64{210, 260, 310}, verdictOK},
		{tok, []float64{100, 150, 200}, []float64{40, 60, 80}, verdictRegress},
		// slo_ok_frac: points of share, not a share of the median.
		{slo, flat(1), flat(1 - 0.9*slo.Bound), verdictOK},
		{slo, flat(1), flat(1 - 1.2*slo.Bound), verdictRegress},
		{slo, flat(0.5), flat(0.5 - 0.9*slo.Bound), verdictOK},
		{slo, flat(0.5), flat(0.5 - 1.2*slo.Bound), verdictRegress},
		// slo_rate_rps takes a few fixed values: any step down regresses.
		{specNamed(t, "slo_rate_rps"), flat(12), flat(12), verdictOK},
		{specNamed(t, "slo_rate_rps"), flat(12), flat(8), verdictRegress},
		{specNamed(t, "slo_rate_rps"), flat(12), flat(24), verdictOK},
	}
	for _, c := range cases {
		if got, worse := judge(c.sp, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s (worse by %g), want %s", c.sp.Name, c.a, c.b, got, worse, c.want)
		}
	}
}

func TestCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tok float64) string {
		f := suiteFile{Schema: suiteSchema, Seed: 1}
		for i := 0; i < 3; i++ {
			m := metrics{}
			m.set("goodput_tok_s", tok+float64(i)*0.1, "tok/s", 0)
			f.Runs = append(f.Runs, map[string]*result{"generate_host": {Workload: "generate_host", Correct: true, Metrics: m}})
		}
		path, err := writeJSON(dir, name, f)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 400), write("same.json", 401), write("slow.json", 200)
	var out bytes.Buffer
	if code, err := compareFiles(&out, a, same); code != 0 || err != nil {
		t.Errorf("A/A compare: code %d, err %v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, err := compareFiles(&out, a, slow); code != 1 || err != nil || !strings.Contains(out.String(), "regress") {
		t.Errorf("half-speed compare: code %d, err %v\n%s", code, err, out.String())
	}
}

// benchmarkJSON is the driver's description of this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bj
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bj.Workloads[i].Name, w.Name)
		}
	}
	var specs []spec
	for _, s := range endToEndSpecs {
		if !s.SuiteOnly {
			specs = append(specs, s)
		}
	}
	if len(bj.EndToEnd) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(specs))
	}
	for i, s := range specs {
		got := bj.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, s)
		}
	}
	if len(bj.PerLayer) != len(contractPerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(contractPerLayer))
	}
	for i, name := range contractPerLayer {
		if bj.PerLayer[i].Name != name {
			t.Errorf("per-layer metric %d is %q in BENCHMARK.json, %q in the program", i, bj.PerLayer[i].Name, name)
		}
	}
}

// The smoke run exercises every workload end to end — plan, load loop,
// oracle, accounting, traced window, K=1 pass — with one-second windows
// and the validity guards off. Its numbers mean nothing; it checks that
// every metric of the driver's lists is produced, with the listed unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four engines")
	}
	units := map[string]string{}
	if b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err == nil {
		var bj benchmarkJSON
		if err := json.Unmarshal(b, &bj); err != nil {
			t.Fatal(err)
		}
		for _, m := range bj.EndToEnd {
			units[m.Name] = m.Unit
		}
		for _, m := range bj.PerLayer {
			units[m.Name] = m.Unit
		}
	}
	ladderOnce := metrics{}
	if err := ladder(ladderOnce, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := newRunConfig(w, 1, 0, true, 2, t.TempDir())
			w := lightened(w)
			if raceEnabled {
				// Eight times slower: eight times the window at an
				// eighth of the arrival rate.
				cfg.Warm, cfg.Dur = 8*cfg.Warm, 8*cfg.Dur
				w.OperatingRPS /= 8
				w.SuitePhases = append([]phase(nil), w.SuitePhases...)
				for i := range w.SuitePhases {
					w.SuitePhases[i].RPS /= 8
				}
			}
			res, err := suiteWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("smoke run incorrect: %d of %d failed: %s", res.Failed, res.Attempted, res.Problem)
			}
			for name, v := range ladderOnce {
				res.Metrics[name] = v
			}
			for _, list := range [][]string{contractEndToEnd, contractPerLayer} {
				if _, err := contractLine(res, list); err != nil {
					t.Error(err)
				}
				for _, name := range list {
					if want, ok := units[name]; ok && res.Metrics[name].Unit != want {
						t.Errorf("%s is reported in %q, BENCHMARK.json says %q", name, res.Metrics[name].Unit, want)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s.json", w.Name))); err != nil {
				t.Errorf("no span dump: %v", err)
			}
		})
	}
}
