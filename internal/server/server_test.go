package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/core"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/sched"
)

// newEngine builds a small in-process engine for end-to-end gateway tests.
func newEngine(t *testing.T, cfg model.Config, k int) *core.Engine {
	t.Helper()
	eng, err := core.New(cfg, k, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// newGateway mounts a gateway over backend on an httptest server.
func newGateway(t *testing.T, backend Backend, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyMatchesDirectSubmit is the acceptance criterion: a request
// admitted through the gateway resolves byte-identically to calling the
// engine directly.
func TestClassifyMatchesDirectSubmit(t *testing.T) {
	eng := newEngine(t, model.Tiny(), 2)
	_, ts := newGateway(t, eng, Options{})

	ids := []int{3, 1, 4, 1, 5, 9, 2, 6}
	direct, err := eng.ClassifyTokens(context.Background(), cluster.StrategyVoltage, ids)
	if err != nil {
		t.Fatal(err)
	}

	var got classifyResponse
	resp := postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": ids})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("classify status = %d: %s", resp.StatusCode, body)
	}
	decodeInto(t, resp, &got)

	if got.Class != direct.Class {
		t.Errorf("class = %d, want %d", got.Class, direct.Class)
	}
	if len(got.Logits) != len(direct.Logits) {
		t.Fatalf("logit count = %d, want %d", len(got.Logits), len(direct.Logits))
	}
	for i := range got.Logits {
		if got.Logits[i] != direct.Logits[i] {
			// float32 → JSON → float32 round-trips exactly (shortest repr),
			// so any difference is a real data-plane divergence.
			t.Fatalf("logit %d = %v, want %v (gateway must be byte-identical to direct Submit)",
				i, got.Logits[i], direct.Logits[i])
		}
	}
	if got.Tokens != len(ids) || got.Strategy != cluster.StrategyVoltage.String() {
		t.Errorf("echo fields = %d/%q, want %d/%q", got.Tokens, got.Strategy, len(ids), cluster.StrategyVoltage)
	}
}

// TestClassifyText covers the text path end to end.
func TestClassifyText(t *testing.T) {
	eng := newEngine(t, model.Tiny(), 2)
	_, ts := newGateway(t, eng, Options{})
	var got classifyResponse
	resp := postJSON(t, ts.URL+"/v1/classify", map[string]any{"text": "the edge meets transformers"})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("classify status = %d: %s", resp.StatusCode, body)
	}
	decodeInto(t, resp, &got)
	if got.Tokens == 0 || len(got.Logits) == 0 {
		t.Errorf("text classify = %+v, want tokens and logits", got)
	}
}

// TestGenerateStreamsIncrementally asserts /v1/generate delivers one
// ndjson token line per decoded token before the final summary line, and
// that the decoded sequence matches the engine's direct result.
func TestGenerateStreamsIncrementally(t *testing.T) {
	eng := newEngine(t, model.TinyDecoder(), 2)
	_, ts := newGateway(t, eng, Options{})

	prompt := []int{1, 2, 3}
	const steps = 4
	direct, err := eng.GenerateCached(context.Background(), prompt, steps)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/generate", map[string]any{"prompt": prompt, "steps": steps})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("generate status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want ndjson", ct)
	}

	var tokens []int
	var final *generateChunk
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var chunk generateChunk
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatalf("bad chunk %q: %v", sc.Text(), err)
		}
		if chunk.Done {
			c := chunk
			final = &c
			continue
		}
		if final != nil {
			t.Fatal("token line after the final summary line")
		}
		if chunk.Token == nil || chunk.Index != len(tokens) {
			t.Fatalf("chunk %+v, want token with index %d", chunk, len(tokens))
		}
		tokens = append(tokens, *chunk.Token)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a summary line")
	}
	if final.Error != "" {
		t.Fatalf("stream error: %s", final.Error)
	}
	generated := len(direct.Tokens) - len(prompt)
	if len(tokens) != generated {
		t.Fatalf("streamed %d tokens, want %d", len(tokens), generated)
	}
	for i, tok := range tokens {
		if want := direct.Tokens[len(prompt)+i]; tok != want {
			t.Fatalf("streamed token %d = %d, want %d", i, tok, want)
		}
	}
	if len(final.Tokens) != len(direct.Tokens) {
		t.Fatalf("final tokens = %v, want %v", final.Tokens, direct.Tokens)
	}
	for i := range final.Tokens {
		if final.Tokens[i] != direct.Tokens[i] {
			t.Fatalf("final tokens = %v, want %v", final.Tokens, direct.Tokens)
		}
	}
}

// fakeBackend is a controllable Backend for shed-policy tests.
type fakeBackend struct {
	cfg   model.Config
	gate  chan struct{} // when non-nil, requests park here
	enter chan struct{} // one tick per request reaching the backend

	mu     sync.Mutex
	health []cluster.RankHealth
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{cfg: model.TinyDecoder(), enter: make(chan struct{}, 64)}
}

func (f *fakeBackend) Config() model.Config { return f.cfg }

func (f *fakeBackend) Health() []cluster.RankHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]cluster.RankHealth(nil), f.health...)
}

func (f *fakeBackend) setHealth(states ...cluster.HealthState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.health = f.health[:0]
	for r, st := range states {
		f.health = append(f.health, cluster.RankHealth{Rank: r, State: st})
	}
}

func (f *fakeBackend) wait(ctx context.Context) error {
	select {
	case f.enter <- struct{}{}:
	default:
	}
	if f.gate == nil {
		return nil
	}
	select {
	case <-f.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeBackend) ClassifyTokens(ctx context.Context, strategy cluster.Strategy, ids []int) (*core.Prediction, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &core.Prediction{
		Class:  len(ids) % 2,
		Logits: []float32{0.25, 0.75},
		Run:    &cluster.Result{ID: 1, Strategy: strategy, Latency: time.Millisecond, Attempts: 1},
	}, nil
}

func (f *fakeBackend) GenerateStream(ctx context.Context, prompt []int, steps int, onToken func(tok int)) (*cluster.GenerateResult, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	tokens := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		tok := (len(tokens)*3 + 1) % f.cfg.VocabSize
		tokens = append(tokens, tok)
		if onToken != nil {
			onToken(tok)
		}
	}
	return &cluster.GenerateResult{Tokens: tokens}, nil
}

// TestOversizedBody413 is the PR-8 body-limit regression: a request body
// tripping http.MaxBytesReader must answer 413 Request Entity Too Large,
// not a generic 400, so clients can tell size limits from protocol errors.
func TestOversizedBody413(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newGateway(t, fb, Options{MaxBody: 64})

	big := map[string]any{"tokens": make([]int, 512)}
	for _, path := range []string{"/v1/classify", "/v1/generate"} {
		resp := postJSON(t, ts.URL+path, big)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body status = %d, want 413", path, resp.StatusCode)
		}
	}
	// A malformed-but-small body is still the caller's 400.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// failingBackend streams a few tokens then fails, returning a partial
// result the way the cluster's batcher does for a sequence that died
// mid-batch past its retry budget.
type failingBackend struct {
	*fakeBackend
	failAfter int
	err       error
}

func (f *failingBackend) GenerateStream(_ context.Context, prompt []int, _ int, onToken func(tok int)) (*cluster.GenerateResult, error) {
	tokens := append([]int(nil), prompt...)
	for i := 0; i < f.failAfter; i++ {
		tok := i + 1
		tokens = append(tokens, tok)
		onToken(tok)
	}
	return &cluster.GenerateResult{
		Tokens:         tokens,
		BatchWait:      3 * time.Millisecond,
		PrefillLatency: 2 * time.Millisecond,
		DecodeLatency:  5 * time.Millisecond,
		Attempts:       3,
		Degraded:       true,
	}, f.err
}

// TestErrorChunkCarriesPartialStats is the PR-8 stream-accounting
// regression: a /v1/generate failure after the stream committed must not
// answer with a bare {"done":true,"error":...} — the summary line carries
// the queue wait, the number of tokens already streamed, and the partial
// result's retry/degradation accounting, so harness measurements of failed
// streams aren't blind.
func TestErrorChunkCarriesPartialStats(t *testing.T) {
	fb := &failingBackend{
		fakeBackend: newFakeBackend(),
		failAfter:   2,
		err:         errors.New("device lost mid-stream"),
	}
	_, ts := newGateway(t, fb, Options{})

	resp := postJSON(t, ts.URL+"/v1/generate", map[string]any{"prompt": []int{1, 2}, "steps": 8})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream committed before the failure)", resp.StatusCode)
	}

	var tokenLines int
	var final *generateChunk
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var chunk generateChunk
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatalf("bad chunk %q: %v", sc.Text(), err)
		}
		if chunk.Done {
			c := chunk
			final = &c
			continue
		}
		tokenLines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tokenLines != 2 {
		t.Fatalf("streamed %d token lines, want 2", tokenLines)
	}
	if final == nil {
		t.Fatal("stream ended without a summary line")
	}
	if final.Error == "" {
		t.Fatal("summary line carries no error")
	}
	if final.Streamed != 2 {
		t.Errorf("error chunk streamed = %d, want 2", final.Streamed)
	}
	if final.Retries != 2 {
		t.Errorf("error chunk retries = %d, want 2 (attempts 3)", final.Retries)
	}
	if !final.Degraded {
		t.Error("error chunk degraded = false, want true")
	}
	if final.QueueMS <= 0 {
		t.Errorf("error chunk queue_ms = %v, want > 0", final.QueueMS)
	}
	if final.BatchWaitMS != 3 {
		t.Errorf("error chunk batch_wait_ms = %v, want 3", final.BatchWaitMS)
	}
	if final.DecodeMS != 5 {
		t.Errorf("error chunk decode_ms = %v, want 5", final.DecodeMS)
	}
}

// TestShedQueueFull429 is the chaos satellite: under a burst that exceeds
// worker + queue capacity, surplus requests shed with typed 429s carrying
// Retry-After, admitted ones all succeed, the shed is visible on /metrics,
// and no goroutines leak.
func TestShedQueueFull429(t *testing.T) {
	baseline := runtime.NumGoroutine()

	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	reg := metrics.NewRegistry()
	_, ts := newGateway(t, fb, Options{
		Registry: reg,
		Sched:    sched.Options{Workers: 1, InteractiveDepth: 1, BatchDepth: 1},
	})

	// One request occupies the worker, one fills the queue; the rest of the
	// burst must shed with 429.
	const burst = 8
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		b, _ := json.Marshal(map[string]any{"tokens": []int{1, 2}})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || !eb.Shed || !strings.Contains(eb.Error, "queue full") {
				t.Errorf("429 body = %s (%v), want shed queue-full error", body, err)
			}
		}
		codes <- resp.StatusCode
	}
	// The first request goes alone, and the other seven wait until the one
	// worker holds it. Fired together, all eight can arrive before the
	// worker takes the first off the queue: the queue's one slot is then
	// full and seven shed, not six.
	wg.Add(1)
	go post()
	select {
	case <-fb.enter:
	case <-time.After(5 * time.Second):
		t.Fatal("the first request never reached the backend")
	}
	for i := 1; i < burst; i++ {
		wg.Add(1)
		go post()
	}
	// Release the gate once the burst has fully landed: the worker parks on
	// the first request, everything else queues or sheds.
	deadline := time.Now().Add(5 * time.Second)
	for len(codes)+2 < burst { // all but worker-held + queued have resolved
		if time.Now().After(deadline) {
			t.Fatalf("burst stuck: %d/%d responses", len(codes), burst)
		}
		time.Sleep(time.Millisecond)
	}
	close(fb.gate)
	wg.Wait()
	close(codes)

	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok != 2 || shed != burst-2 {
		t.Errorf("burst resolved %d ok / %d shed, want 2 / %d", ok, shed, burst-2)
	}

	// The shed is observable on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `voltage_gateway_shed_total{cause="queue_full"} `+fmt.Sprint(burst-2)) {
		t.Errorf("/metrics missing shed count:\n%s", grepLines(text, "shed"))
	}
	if !strings.Contains(text, `voltage_gateway_queue_depth{class="interactive"}`) {
		t.Errorf("/metrics missing per-class queue depth:\n%s", grepLines(text, "queue_depth"))
	}

	// No goroutine leak: everything the burst spawned winds down.
	waitGoroutines(t, baseline)
}

// grepLines filters text to lines containing substr (test diagnostics).
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// waitGoroutines polls until the goroutine count returns near baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Client keep-alive connections pin server-side goroutines; drop
		// them so only a real leak keeps the count up.
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines = %d, baseline %d: leak suspected", runtime.NumGoroutine(), baseline)
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradedSheds503 exercises the health-driven shed policy end to end.
func TestDegradedSheds503(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newGateway(t, fb, Options{})

	// Partially degraded: batch (generate) sheds, interactive serves.
	fb.setHealth(cluster.Healthy, cluster.Unhealthy)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]any{"prompt": []int{1}, "steps": 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded generate status = %d, want 503", resp.StatusCode)
	}
	var eb errorBody
	decodeInto(t, resp, &eb)
	if !eb.Shed {
		t.Errorf("degraded 503 body = %+v, want shed", eb)
	}
	resp = postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded classify status = %d, want 200", resp.StatusCode)
	}

	// Dead: everything sheds, /healthz flips to 503.
	fb.setHealth(cluster.Unhealthy, cluster.Unhealthy)
	resp = postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead classify status = %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead /healthz = %d, want 503", hz.StatusCode)
	}
}

// TestGracefulDrain is the drain satellite: in-flight work completes,
// new requests shed with 503, Drain returns once idle.
func TestGracefulDrain(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	s, ts := newGateway(t, fb, Options{Sched: sched.Options{Workers: 1}})

	inflight := make(chan *http.Response, 1)
	go func() {
		inflight <- postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}})
	}()
	// Wait for the request to reach the backend.
	select {
	case <-fb.enter:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the backend")
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Scheduler().Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain = %d, want 503", resp.StatusCode)
	}

	close(fb.gate)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	in := <-inflight
	io.Copy(io.Discard, in.Body)
	in.Body.Close()
	if in.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", in.StatusCode)
	}
}

// TestDeadlineBeforeService429 asserts an unmeetable client timeout sheds
// up front.
func TestDeadlineBeforeService429(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newGateway(t, fb, Options{EstimateInteractive: 10 * time.Second})
	resp := postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}, "timeout_ms": 5})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unmeetable deadline status = %d, want 429", resp.StatusCode)
	}
	var eb errorBody
	decodeInto(t, resp, &eb)
	if !strings.Contains(eb.Error, "deadline") {
		t.Errorf("body = %+v, want deadline shed", eb)
	}
}

func TestQueueIntrospection(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newGateway(t, fb, Options{})
	resp := postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var q queueResponse
	get, err := http.Get(ts.URL + "/v1/queue")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, get, &q)
	if len(q.Scheduler.Classes) != 2 {
		t.Fatalf("queue classes = %+v, want interactive and batch", q.Scheduler.Classes)
	}
	var served uint64
	for _, cs := range q.Scheduler.Classes {
		served += cs.Served
	}
	if served != 1 {
		t.Errorf("served = %d, want 1", served)
	}
}

func TestBadRequests(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newGateway(t, fb, Options{})
	cases := []struct {
		name string
		body map[string]any
	}{
		{"empty", map[string]any{}},
		{"both", map[string]any{"tokens": []int{1}, "text": "x"}},
		{"strategy", map[string]any{"tokens": []int{1}, "strategy": "wat"}},
		{"class", map[string]any{"tokens": []int{1}, "class": "wat"}},
		{"unknown field", map[string]any{"tokens": []int{1}, "bogus": true}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/classify", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	get, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET classify = %d, want 405", get.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]any{"prompt": []int{1}, "steps": 100000})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized steps = %d, want 400", resp.StatusCode)
	}
}

// TestClientMistakesAnswer400BeforeAdmission: a request the served model
// cannot run is the client's mistake — 400 from the gateway, never admitted
// and never shown to the backend — not the 500 the engine's own failure
// would map to — a baseline strategy included: the runtime serves Voltage
// only. A valid request beside them still serves, the strategy field empty
// or spelling "voltage".
func TestClientMistakesAnswer400BeforeAdmission(t *testing.T) {
	encoder, decoder := newFakeBackend(), newFakeBackend()
	encoder.cfg = model.Tiny() // VocabSize 100, MaxSeq 64, as TinyDecoder
	encGW, encTS := newGateway(t, encoder, Options{})
	decGW, decTS := newGateway(t, decoder, Options{})
	seq := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i % 100
		}
		return ids
	}
	cases := []struct {
		name string
		url  string
		body map[string]any
		want string // substring of the response body
	}{
		{"classify id beyond vocab", encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, 2, 9999}}, "token id 9999 outside vocab 100"},
		{"classify negative id", encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, -2, 3}}, "token id -2 outside vocab 100"},
		{"classify beyond MaxSeq", encTS.URL + "/v1/classify", map[string]any{"tokens": seq(70)}, "sequence length 70 exceeds max 64"},
		{"classify tensor-parallel", encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, 2}, "strategy": "tp"}, "only the voltage strategy is served (asked tensor-parallel)"},
		{"classify single", encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, 2}, "strategy": "single"}, "only the voltage strategy is served (asked single)"},
		{"generate on an encoder", encTS.URL + "/v1/generate", map[string]any{"prompt": []int{1, 2, 3}, "steps": 2}, "tiny is not a decoder"},
		{"generate id beyond vocab", decTS.URL + "/v1/generate", map[string]any{"prompt": []int{1, 100}, "steps": 2}, "token id 100 outside vocab 100"},
		{"generate prompt fills MaxSeq", decTS.URL + "/v1/generate", map[string]any{"prompt": seq(64), "steps": 2}, "leaves no position to generate"},
		{"generate negative steps", decTS.URL + "/v1/generate", map[string]any{"prompt": []int{1, 2, 3}, "steps": -1}, "negative steps -1"},
	}
	for _, tc := range cases {
		resp := postJSON(t, tc.url, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %q, want 400 mentioning %q", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	admitted := func(gw *Server) (n uint64) {
		for _, cs := range gw.Scheduler().Stats().Classes {
			n += cs.Admitted
		}
		return n
	}
	if a, b := admitted(encGW), admitted(decGW); a != 0 || b != 0 {
		t.Fatalf("malformed requests were admitted: %d on the encoder gateway, %d on the decoder's", a, b)
	}
	if len(encoder.enter)+len(decoder.enter) != 0 {
		t.Fatal("a malformed request reached the backend")
	}

	for _, ok := range []struct {
		url  string
		body map[string]any
	}{
		{encTS.URL + "/v1/classify", map[string]any{"tokens": seq(64)}},
		{encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, 2}, "strategy": ""}},
		{encTS.URL + "/v1/classify", map[string]any{"tokens": []int{1, 2}, "strategy": "voltage"}},
		{decTS.URL + "/v1/generate", map[string]any{"prompt": seq(63), "steps": 1}},
	} {
		resp := postJSON(t, ok.url, ok.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("valid request to %s = %d, want 200", ok.url, resp.StatusCode)
		}
	}
	if a, b := admitted(encGW), admitted(decGW); a != 3 || b != 1 {
		t.Errorf("valid requests admitted %d + %d, want 3 + 1", a, b)
	}
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{sched.ErrQueueFull, http.StatusTooManyRequests},
		{sched.ErrDeadlineBeforeService, http.StatusTooManyRequests},
		{fmt.Errorf("wrap: %w", sched.ErrDraining), http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", sched.ErrDegraded), http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestDebugEndpointsAndShedEvents: a flight-recording backend surfaces its
// debug endpoints on the gateway mux, and scheduler shed decisions land in
// the flight recorder as events.
func TestDebugEndpointsAndShedEvents(t *testing.T) {
	eng, err := core.New(model.TinyDecoder(), 2, cluster.Options{TraceRequests: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var dead atomic.Bool
	_, ts := newGateway(t, eng, Options{Sched: sched.Options{Health: func() sched.ClusterState {
		if dead.Load() {
			return sched.ClusterState{Dead: true}
		}
		return sched.ClusterState{}
	}}})

	// One successful generate so the flight recorder retires a traced
	// request.
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]any{"prompt": []int{1, 2, 3}, "steps": 3})
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d", resp.StatusCode)
	}

	// A dead cluster sheds the next request; the shed must flow through
	// sched.Options.OnShed into the engine's flight recorder.
	dead.Store(true)
	resp = postJSON(t, ts.URL+"/v1/classify", map[string]any{"tokens": []int{1, 2}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", resp.StatusCode)
	}

	fresp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []struct {
			Kind string `json:"kind"`
			Msg  string `json:"msg"`
		} `json:"events"`
	}
	decodeInto(t, fresp, &dump)
	var shed bool
	for _, ev := range dump.Events {
		if ev.Kind == "shed" && strings.Contains(ev.Msg, "degraded") {
			shed = true
		}
	}
	if !shed {
		t.Errorf("no shed event in /debug/flight dump: %+v", dump.Events)
	}

	// The batched-generate request retires into the flight recorder shortly
	// after its last sequence leaves; poll the trace export until its spans
	// appear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tresp, err := http.Get(ts.URL + "/debug/trace")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		decodeInto(t, tresp, &doc)
		if doc.TraceEvents == nil {
			t.Fatal("/debug/trace missing traceEvents array")
		}
		if len(doc.TraceEvents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/debug/trace never produced events for the traced generate")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGenerateCancelMidStreamLeavesResponseToHandler cancels /v1/generate
// requests at points swept across the decode. Once ServeHTTP has returned
// the ResponseWriter belongs to the server again: the engine must not run a
// token callback — which writes a chunk — after that. The recorder is not
// synchronised, so under -race a late callback is a reported data race with
// the read below.
func TestGenerateCancelMidStreamLeavesResponseToHandler(t *testing.T) {
	eng := newEngine(t, model.TinyDecoder(), 2)
	s, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	for i := 0; i < 80; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/generate",
			strings.NewReader(`{"prompt":[1,2,3],"steps":40}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		delay := time.Duration(i%40) * 75 * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		h.ServeHTTP(rec, req)
		if n := rec.Body.Len(); rec.Code == http.StatusOK && n == 0 {
			t.Errorf("iteration %d: 200 with an empty body", i)
		}
		cancel()
	}
}
