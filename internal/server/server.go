// Package server is the inference gateway's network front door: a
// standard-library net/http JSON API over the admission scheduler
// (internal/sched) and the serving engine.
//
// Endpoints:
//
//	POST /v1/classify  one classification request (tokens or text);
//	                   scheduled in the interactive class
//	POST /v1/generate  KV-cached autoregressive generation with chunked
//	                   streaming token output (one JSON line per token);
//	                   scheduled in the batch class
//	GET  /v1/queue     scheduler introspection: per-class depths, shed
//	                   counts, inflight
//	GET  /healthz      worker health (503 when no rank serves)
//	GET  /metrics      Prometheus text exposition (when a registry is
//	                   wired)
//
// Shed decisions map onto transport status codes: a full queue or an
// unmeetable deadline is the caller's signal to back off (429), draining
// and degradation are the service's own unavailability (503). Request
// deadlines plumb from the client's timeout_ms straight into the
// scheduler's EDF ordering and the engine's request context.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/core"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/obs"
	"voltage/internal/sched"
	"voltage/internal/tokenizer"
	"voltage/internal/trace"
)

// Backend is the inference engine the gateway fronts. *core.Engine
// implements it; the voltage-server binary also provides a TCP-mesh
// terminal backend.
type Backend interface {
	// Config returns the served model's configuration.
	Config() model.Config
	// ClassifyTokens serves one classification request.
	ClassifyTokens(ctx context.Context, strategy cluster.Strategy, ids []int) (*core.Prediction, error)
	// GenerateStream decodes steps tokens, calling onToken as each is
	// produced. No onToken call may begin after GenerateStream returns —
	// also when ctx is canceled mid-stream — and every call made must
	// happen before the return: the handler writes the response from the
	// callback and, afterwards, from its own goroutine. Backends without
	// generation support return an error. A mid-stream failure may return
	// a non-nil partial result alongside the error, carrying the
	// accounting accumulated before the failure.
	GenerateStream(ctx context.Context, prompt []int, steps int, onToken func(tok int)) (*cluster.GenerateResult, error)
	// Health reports per-worker serving eligibility (empty when the
	// backend has no health tracking).
	Health() []cluster.RankHealth
}

// Backend conformance of the in-process engine.
var _ Backend = (*core.Engine)(nil)

// Options configures a gateway server.
type Options struct {
	// Sched configures the admission scheduler. Sched.Health defaults to a
	// policy derived from Backend.Health (degraded when any rank is
	// unhealthy, dead when all are); Sched.Registry defaults to Registry.
	Sched sched.Options
	// Registry, when non-nil, is mounted at /metrics and receives the
	// gateway metric families.
	Registry *metrics.Registry
	// DefaultSteps bounds /v1/generate when the request names no step
	// count (default 16).
	DefaultSteps int
	// MaxSteps caps /v1/generate step counts (default 256).
	MaxSteps int
	// MaxBody caps request body size in bytes (default 1 MiB).
	MaxBody int64
	// EstimateInteractive / EstimateBatch are the expected service times
	// used for the deadline-before-service shed check (0 sheds only
	// already-expired deadlines).
	EstimateInteractive time.Duration
	EstimateBatch       time.Duration
}

// Server is a running gateway: an admission scheduler plus the HTTP
// handlers that feed it.
type Server struct {
	backend Backend
	sch     *sched.Scheduler
	tok     *tokenizer.Tokenizer
	opts    Options
	mux     *http.ServeMux
}

// New builds a gateway over backend and starts its scheduler.
func New(backend Backend, opts Options) (*Server, error) {
	if opts.DefaultSteps <= 0 {
		opts.DefaultSteps = 16
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 256
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	if opts.Sched.Health == nil {
		opts.Sched.Health = func() sched.ClusterState { return healthState(backend.Health()) }
	}
	if opts.Sched.Registry == nil {
		opts.Sched.Registry = opts.Registry
	}
	fs, _ := backend.(flightSource)
	if opts.Sched.OnShed == nil && fs != nil {
		// Shed decisions are diagnostics gold: route them into the engine's
		// flight recorder so a post-incident dump shows what the gateway
		// turned away. Eventf only appends to a ring, so it is safe under
		// the scheduler's lock.
		flight := fs.Flight()
		opts.Sched.OnShed = func(class sched.Class, cause string) {
			flight.Eventf("shed", -1, "gateway shed %s request: %s", class, cause)
		}
	}
	tok, err := tokenizer.New(backend.Config().VocabSize)
	if err != nil {
		return nil, fmt.Errorf("server: tokenizer: %w", err)
	}
	s := &Server{
		backend: backend,
		sch:     sched.New(opts.Sched),
		tok:     tok,
		opts:    opts,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/generate", s.handleGenerate)
	s.mux.HandleFunc("/v1/queue", s.handleQueue)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if opts.Registry != nil {
		s.mux.Handle("/metrics", metrics.Handler(opts.Registry))
	}
	if fs != nil {
		// Mirror the engine's debug surface on the gateway so load clients
		// reach the flight recorder and timeline export through the same
		// base URL they send inference to.
		s.mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(fs.FlightDump())
		})
		s.mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="voltage-trace.json"`)
			_, _ = w.Write(fs.ChromeTrace())
		})
	}
	return s, nil
}

// flightSource is the optional backend capability behind the gateway's
// /debug/flight and /debug/trace endpoints and the shed → flight-event
// bridge. *core.Engine implements it; backends without a flight recorder
// (e.g. a remote TCP terminal) simply lack the endpoints.
type flightSource interface {
	Flight() *obs.FlightRecorder
	FlightDump() obs.Dump
	ChromeTrace() []byte
}

// healthState folds per-rank health into the scheduler's shed signal.
func healthState(ranks []cluster.RankHealth) sched.ClusterState {
	if len(ranks) == 0 {
		return sched.ClusterState{}
	}
	var down int
	for _, rh := range ranks {
		if rh.State == cluster.Unhealthy {
			down++
		}
	}
	return sched.ClusterState{Degraded: down > 0, Dead: down == len(ranks)}
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the admission scheduler (introspection, tests).
func (s *Server) Scheduler() *sched.Scheduler { return s.sch }

// Drain stops admission and waits for in-flight work, bounded by ctx.
func (s *Server) Drain(ctx context.Context) error { return s.sch.Drain(ctx) }

// Close abandons queued work and stops the scheduler.
func (s *Server) Close() { s.sch.Close() }

// StatusFor maps a request error onto its HTTP status: shed decisions the
// caller should retry after backoff are 429, the service's own
// unavailability is 503, an expired deadline that reached the engine is
// 504, anything else is a 500.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, sched.ErrQueueFull), errors.Is(err, sched.ErrDeadlineBeforeService):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrDraining), errors.Is(err, sched.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Shed  bool   `json:"shed,omitempty"`
}

// writeError renders err as its mapped status with a JSON body. Shed
// responses carry Retry-After so well-behaved clients back off.
func writeError(w http.ResponseWriter, err error) {
	status := StatusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	shed := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Shed: shed})
}

// classifyRequest is the /v1/classify body. Exactly one of Tokens or Text
// must be set.
type classifyRequest struct {
	Tokens []int  `json:"tokens,omitempty"`
	Text   string `json:"text,omitempty"`
	// Strategy accepts "" and "voltage", the one strategy served; existing
	// clients spell it, so the field stays until they stop.
	Strategy  string `json:"strategy,omitempty"`
	Class     string `json:"class,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// classifyResponse is the /v1/classify result.
type classifyResponse struct {
	ID        uint64    `json:"id"`
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits"`
	Strategy  string    `json:"strategy"`
	Tokens    int       `json:"tokens"`
	QueueMS   float64   `json:"queue_ms"`
	LatencyMS float64   `json:"latency_ms"`
	Attempts  int       `json:"attempts"`
	Degraded  bool      `json:"degraded,omitempty"`
}

// decodeBody parses a bounded JSON request body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBodyError renders a decodeBody failure. A body tripping the
// MaxBytesReader limit is a size-limit violation, not a malformed request:
// it answers 413 so load-test clients can tell the two apart; everything
// else is the usual 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// resolveTokens maps a request's tokens-or-text onto token ids.
func (s *Server) resolveTokens(tokens []int, text string) ([]int, error) {
	switch {
	case len(tokens) > 0 && text != "":
		return nil, fmt.Errorf("set tokens or text, not both")
	case len(tokens) > 0:
		return tokens, nil
	case text != "":
		return s.tok.Encode(text), nil
	default:
		return nil, fmt.Errorf("empty request: set tokens or text")
	}
}

// checkGenerate rejects a generate request the engine would fail — client
// mistakes must answer 400 before admission, not 500 after spending a slot:
// a model with no decoder, a prompt the model cannot embed or one that fills
// MaxSeq and leaves no position to generate into, a negative step count.
func checkGenerate(cfg model.Config, prompt []int, steps int) error {
	if cfg.Kind != model.KindDecoder {
		return fmt.Errorf("model: %s is not a decoder", cfg.Name)
	}
	if err := cfg.CheckTokens(prompt); err != nil {
		return err
	}
	if len(prompt) >= cfg.MaxSeq {
		return fmt.Errorf("prompt length %d leaves no position to generate within max sequence %d", len(prompt), cfg.MaxSeq)
	}
	if steps < 0 {
		return fmt.Errorf("negative steps %d", steps)
	}
	return nil
}

// deadlineFor resolves a request's deadline from its timeout field.
func deadlineFor(timeoutMS int64) time.Time {
	if timeoutMS <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(timeoutMS) * time.Millisecond)
}

// handleClassify serves POST /v1/classify through the interactive queue.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req classifyRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	ids, err := s.resolveTokens(req.Tokens, req.Text)
	if err == nil {
		err = s.backend.Config().CheckTokens(ids)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	strat, err := cluster.ParseStrategy(req.Strategy)
	if err == nil {
		err = strat.Served()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class := sched.Interactive
	if req.Class != "" {
		if class, err = sched.ParseClass(req.Class); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	est := s.opts.EstimateInteractive
	if class == sched.Batch {
		est = s.opts.EstimateBatch
	}

	var resp classifyResponse
	err = s.sch.Do(r.Context(), sched.Job{
		Class:    class,
		Deadline: deadlineFor(req.TimeoutMS),
		Est:      est,
		Run: func(ctx context.Context, waited time.Duration) error {
			pred, err := s.backend.ClassifyTokens(ctx, strat, ids)
			if err != nil {
				return err
			}
			// The queue wait precedes the engine's trace: pin it at offset 0
			// so the span timeline reads queue → boundary → compute.
			pred.Run.Trace.AddAt(-1, -1, trace.PhaseQueue, 0, waited)
			resp = classifyResponse{
				ID:        pred.Run.ID,
				Class:     pred.Class,
				Logits:    pred.Logits,
				Strategy:  pred.Run.Strategy.String(),
				Tokens:    len(ids),
				QueueMS:   float64(waited) / float64(time.Millisecond),
				LatencyMS: float64(pred.Run.Latency) / float64(time.Millisecond),
				Attempts:  pred.Run.Attempts,
				Degraded:  pred.Run.Degraded,
			}
			return nil
		},
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// generateRequest is the /v1/generate body.
type generateRequest struct {
	Prompt    []int  `json:"prompt,omitempty"`
	Text      string `json:"text,omitempty"`
	Steps     int    `json:"steps,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// generateChunk is one streamed line of /v1/generate: token lines while
// decoding, then a final summary line.
type generateChunk struct {
	Token       *int    `json:"token,omitempty"`
	Index       int     `json:"index,omitempty"`
	Done        bool    `json:"done,omitempty"`
	Tokens      []int   `json:"tokens,omitempty"`
	QueueMS     float64 `json:"queue_ms,omitempty"`
	BatchWaitMS float64 `json:"batch_wait_ms,omitempty"`
	PrefillMS   float64 `json:"prefill_ms,omitempty"`
	DecodeMS    float64 `json:"decode_ms,omitempty"`
	// Retries counts mid-stream batch recoveries the sequence rode out
	// (re-prefills after a device failure); Degraded reports it spent time
	// on fewer than the full worker set. Tokens are exact either way.
	Retries  int    `json:"retries,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Streamed is set on an error summary line: how many token lines the
	// client received before the failure, so partial streams measure.
	Streamed int `json:"streamed,omitempty"`
}

// handleGenerate serves POST /v1/generate through the batch queue,
// streaming one JSON line per decoded token over a chunked response.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req generateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	prompt, err := s.resolveTokens(req.Prompt, req.Text)
	if err == nil {
		err = checkGenerate(s.backend.Config(), prompt, req.Steps)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	steps := req.Steps
	if steps == 0 {
		steps = s.opts.DefaultSteps
	}
	if steps > s.opts.MaxSteps {
		http.Error(w, fmt.Sprintf("steps %d exceeds limit %d", steps, s.opts.MaxSteps), http.StatusBadRequest)
		return
	}

	// Everything after the first token line is committed to a 200 chunked
	// stream; failures before it map onto the shed status codes.
	started := false
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(chunk generateChunk) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		_ = enc.Encode(chunk)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// The Run closure publishes its measurements here so a failed stream
	// can still account for itself on the error summary line. sch.Do only
	// returns after Run has resolved, so the reads below are ordered.
	var (
		streamed int
		waited   time.Duration
		partial  *cluster.GenerateResult
	)
	err = s.sch.Do(r.Context(), sched.Job{
		Class:    sched.Batch,
		Deadline: deadlineFor(req.TimeoutMS),
		Est:      s.opts.EstimateBatch,
		EstFn:    s.generateEst(),
		Run: func(ctx context.Context, w time.Duration) error {
			waited = w
			res, err := s.backend.GenerateStream(ctx, prompt, steps, func(tok int) {
				t := tok
				emit(generateChunk{Token: &t, Index: streamed})
				streamed++
			})
			if err != nil {
				// A mid-stream failure may carry the partial result with
				// its committed accounting (attempts, degradation, waits).
				partial = res
				return err
			}
			emit(generateChunk{
				Done:        true,
				Tokens:      res.Tokens,
				QueueMS:     float64(waited) / float64(time.Millisecond),
				BatchWaitMS: float64(res.BatchWait) / float64(time.Millisecond),
				PrefillMS:   float64(res.PrefillLatency) / float64(time.Millisecond),
				DecodeMS:    float64(res.DecodeLatency) / float64(time.Millisecond),
				Retries:     max(res.Attempts-1, 0),
				Degraded:    res.Degraded,
			})
			return nil
		},
	})
	if err != nil {
		if started {
			// The stream is already committed: report the failure in-band,
			// with the accounting the request accumulated before dying —
			// queue wait, tokens already streamed, and (when the backend
			// returned a partial result) its retry/degradation history.
			chunk := generateChunk{
				Done:     true,
				Error:    err.Error(),
				QueueMS:  float64(waited) / float64(time.Millisecond),
				Streamed: streamed,
			}
			if partial != nil {
				chunk.BatchWaitMS = float64(partial.BatchWait) / float64(time.Millisecond)
				chunk.PrefillMS = float64(partial.PrefillLatency) / float64(time.Millisecond)
				chunk.DecodeMS = float64(partial.DecodeLatency) / float64(time.Millisecond)
				chunk.Retries = max(partial.Attempts-1, 0)
				chunk.Degraded = partial.Degraded
			}
			emit(chunk)
			return
		}
		writeError(w, err)
	}
}

// batchWidther is the optional backend capability behind batch-aware
// admission estimates: a continuously-batching engine reports how many
// generate sequences currently share fused decode steps.
type batchWidther interface {
	BatchWidth() int
}

// generateEst returns the batch-aware service-time estimator for generate
// jobs, or nil when the backend cannot report its fused-batch width (the
// static Est then applies). A sequence joining a width-w batch shares each
// fused step's round trip with w others, so the serial estimate divided by
// the width is the shed-before-service bound — without this, the scheduler
// would overestimate fused service time and shed work it could have served.
func (s *Server) generateEst() func() time.Duration {
	bw, ok := s.backend.(batchWidther)
	if !ok || s.opts.EstimateBatch <= 0 {
		return nil
	}
	est := s.opts.EstimateBatch
	return func() time.Duration {
		if w := bw.BatchWidth(); w > 1 {
			return est / time.Duration(w)
		}
		return est
	}
}

// queueResponse is the /v1/queue report.
type queueResponse struct {
	Scheduler sched.Stats    `json:"scheduler"`
	Health    map[string]any `json:"health"`
}

// handleQueue serves GET /v1/queue.
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	state := healthState(s.backend.Health())
	resp := queueResponse{
		Scheduler: s.sch.Stats(),
		Health: map[string]any{
			"degraded": state.Degraded,
			"dead":     state.Dead,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleHealthz mirrors the admin listener's health contract: 200 while
// any rank serves, 503 when none does, per-rank detail either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ranks := s.backend.Health()
	state := healthState(ranks)
	type rankDetail struct {
		Rank     int    `json:"rank"`
		State    string `json:"state"`
		Failures int    `json:"failures"`
	}
	detail := make([]rankDetail, len(ranks))
	for i, rh := range ranks {
		detail[i] = rankDetail{Rank: rh.Rank, State: rh.State.String(), Failures: rh.Failures}
	}
	w.Header().Set("Content-Type", "application/json")
	if state.Dead {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": !state.Dead, "detail": detail})
}
