// Package core is the Voltage engine: the end-to-end distributed inference
// pipeline of the paper's Fig. 3. It ties together pre-processing
// (embedding on the terminal device), the distributed transformer stack
// (Algorithm 2 over the cluster runtime), and post-processing
// (classification / next-token prediction).
package core

import (
	"context"
	"fmt"

	"voltage/internal/cluster"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/obs"
	"voltage/internal/tensor"
)

// Engine is a ready-to-serve distributed inference deployment: a model
// replicated over a cluster of emulated edge devices.
type Engine struct {
	cluster *cluster.Cluster
	// terminal is the model replica used by the terminal device for pre-
	// and post-processing (identical weights to every worker replica).
	terminal *model.Model
}

// New builds an engine for the configuration over k emulated devices.
func New(cfg model.Config, k int, opts cluster.Options) (*Engine, error) {
	c, err := cluster.NewMem(cfg, k, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{cluster: c, terminal: c.Model(0)}, nil
}

// Close releases the cluster.
func (e *Engine) Close() { e.cluster.Close() }

// Cluster exposes the underlying cluster for experiments (bandwidth
// sweeps, stats).
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Config returns the model configuration.
func (e *Engine) Config() model.Config { return e.cluster.Config() }

// Health returns a snapshot of every worker device's health state — which
// ranks are serving, on probation, or excluded after blamed failures.
func (e *Engine) Health() []cluster.RankHealth { return e.cluster.Health() }

// Metrics returns a point-in-time snapshot of every metric series the
// serving runtime maintains.
func (e *Engine) Metrics() metrics.Snapshot { return e.cluster.Metrics() }

// Profile returns the continuous profiler's rolling per-rank estimates:
// EWMA phase and fused-step times, comm bytes, round skew, and straggler
// flags — what the skew gauges and flight dumps report.
func (e *Engine) Profile() obs.Profile { return e.cluster.Profile() }

// Flight returns the engine's always-on flight recorder (never nil).
func (e *Engine) Flight() *obs.FlightRecorder { return e.cluster.Flight() }

// FlightDump snapshots the flight recorder — recent cluster events and
// retired request traces — together with the current profile.
func (e *Engine) FlightDump() obs.Dump { return e.cluster.FlightDump() }

// ChromeTrace exports the flight recorder's retired request traces as
// Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
func (e *Engine) ChromeTrace() []byte { return e.cluster.ChromeTrace() }

// Prediction is the result of one end-to-end classification request.
type Prediction struct {
	Class  int
	Logits []float32
	Run    *cluster.Result
}

// Serve starts the engine's persistent serving runtime. It is idempotent
// and implied by the first request; call it eagerly to pay the goroutine
// start-up before the first request arrives.
func (e *Engine) Serve() { e.cluster.Serve() }

// Submit admits one raw inference request (pre-embedded features) without
// blocking; the returned handle resolves when the distributed run
// completes. Overlapping submissions wait in the cluster's queue and enter
// the mesh in admission order, up to one pass per worker on it at once.
func (e *Engine) Submit(ctx context.Context, strategy cluster.Strategy, x *tensor.Matrix) (*cluster.Pending, error) {
	return e.cluster.Submit(ctx, strategy, x)
}

// PendingPrediction is an admitted classification request; Wait performs
// the terminal-side post-processing once the distributed run resolves.
type PendingPrediction struct {
	eng  *Engine
	pend *cluster.Pending
}

// ID returns the underlying request id.
func (p *PendingPrediction) ID() uint64 { return p.pend.ID() }

// Done is closed when the distributed run has completed.
func (p *PendingPrediction) Done() <-chan struct{} { return p.pend.Done() }

// Wait blocks until the request completes, then classifies the output.
func (p *PendingPrediction) Wait(ctx context.Context) (*Prediction, error) {
	res, err := p.pend.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return p.eng.postprocess(res)
}

// SubmitTokens admits one text-classification request without blocking: the
// token ids go to the devices as they are (each embeds them itself), the
// distributed run — cut down to the pooled row the classifier reads — is
// sequenced by the cluster's loop, and Wait post-processes.
func (e *Engine) SubmitTokens(ctx context.Context, strategy cluster.Strategy, ids []int) (*PendingPrediction, error) {
	pend, err := e.cluster.SubmitTokens(ctx, strategy, ids)
	if err != nil {
		return nil, err
	}
	return &PendingPrediction{eng: e, pend: pend}, nil
}

// SubmitImage admits one image-classification request (ViT path) without
// blocking: the terminal embeds the patches, the run is cut down to the
// pooled row like a token classify's.
func (e *Engine) SubmitImage(ctx context.Context, strategy cluster.Strategy, im *model.Image) (*PendingPrediction, error) {
	x, err := e.terminal.Embed.EmbedImage(im)
	if err != nil {
		return nil, fmt.Errorf("core: pre-process: %w", err)
	}
	pend, err := e.cluster.SubmitPooled(ctx, strategy, x)
	if err != nil {
		return nil, err
	}
	return &PendingPrediction{eng: e, pend: pend}, nil
}

// ClassifyTokens serves one text-classification request: run the embedding
// and the transformer stack distributed, classify the pooled row that comes
// back. It is a blocking wrapper over SubmitTokens + Wait.
func (e *Engine) ClassifyTokens(ctx context.Context, strategy cluster.Strategy, ids []int) (*Prediction, error) {
	pend, err := e.SubmitTokens(ctx, strategy, ids)
	if err != nil {
		return nil, err
	}
	return pend.Wait(ctx)
}

// ClassifyImage serves one image-classification request (ViT path).
func (e *Engine) ClassifyImage(ctx context.Context, strategy cluster.Strategy, im *model.Image) (*Prediction, error) {
	pend, err := e.SubmitImage(ctx, strategy, im)
	if err != nil {
		return nil, err
	}
	return pend.Wait(ctx)
}

// postprocess classifies a completed run's output. The classifier head is
// read-only, so concurrent Waits may post-process in parallel.
func (e *Engine) postprocess(res *cluster.Result) (*Prediction, error) {
	logits, err := e.terminal.Classifier.Logits(res.Output)
	if err != nil {
		return nil, fmt.Errorf("core: post-process: %w", err)
	}
	return &Prediction{Class: model.Argmax(logits), Logits: logits, Run: res}, nil
}

// GenerateCached decodes with the distributed KV cache: one Voltage
// prefill over the prompt, then per-token steps that move only a token id
// to the workers and one hidden row back. Orders of magnitude less
// traffic and compute per token than recomputing the whole prefix each step
// (harness.Mesh.Recompute measures that); the greedy decodings are
// identical.
func (e *Engine) GenerateCached(ctx context.Context, prompt []int, steps int) (*cluster.GenerateResult, error) {
	return e.cluster.GenerateVoltage(ctx, prompt, steps)
}

// GenerateStream is GenerateCached with incremental delivery: onToken is
// called with each generated token id as soon as it is decoded, before the
// next decode step runs — the serving gateway's streaming endpoint rides on
// this. The callback runs on the serving loop's goroutine and must not
// block indefinitely; no call to it begins after GenerateStream
// returns, however the stream ended.
func (e *Engine) GenerateStream(ctx context.Context, prompt []int, steps int, onToken func(tok int)) (*cluster.GenerateResult, error) {
	return e.cluster.GenerateVoltageStream(ctx, prompt, steps, onToken)
}

// BatchWidth reports how many generate sequences are currently live in or
// waiting for the cluster's fused decode batch — the gateway's batch-aware
// admission estimate divides serial service time by it.
func (e *Engine) BatchWidth() int { return e.cluster.BatchWidth() }
