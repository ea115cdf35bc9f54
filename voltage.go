// Package voltage is the public API of this repository: a from-scratch Go
// implementation of Voltage, the cross-device distributed inference system
// for transformer models from "When the Edge Meets Transformers:
// Distributed Inference with Transformer Models" (ICDCS 2024).
//
// Voltage partitions each transformer layer position-wise across K edge
// devices: every device computes the layer output for a slice of sequence
// positions, re-ordering the self-attention matrix products per Theorem 2
// so the per-device work is O(1/K), and a single All-Gather per layer
// re-assembles the activations — ¼ of tensor parallelism's communication.
//
// # Quick start
//
//	engine, err := voltage.NewEngine(voltage.Tiny(), 3, voltage.ClusterOptions{
//		Profile: voltage.EdgeDefaultProfile,
//	})
//	if err != nil { ... }
//	defer engine.Close()
//	pred, err := engine.ClassifyTokens(ctx, voltage.StrategyVoltage, tokens)
//
// The engine is a persistent serving runtime: Engine.SubmitTokens admits
// requests without blocking and overlapping requests are pipelined through
// the device mesh (see the "Serving runtime" section of DESIGN.md);
// ClassifyTokens is the blocking wrapper.
//
// The facade re-exports the stable surface of the internal packages; the
// examples/ directory shows complete programs for text classification,
// image classification, autoregressive generation and bandwidth studies.
package voltage

import (
	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/core"
	"voltage/internal/costmodel"
	"voltage/internal/flopcount"
	"voltage/internal/harness"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/sched"
	"voltage/internal/server"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Engine is an end-to-end distributed inference deployment.
	Engine = core.Engine
	// Prediction is a classification result with its run report.
	Prediction = core.Prediction
	// PendingRun is an admitted (non-blocking) raw inference request.
	PendingRun = cluster.Pending
	// PendingPrediction is an admitted classification request; Wait
	// post-processes once the distributed run resolves.
	PendingPrediction = core.PendingPrediction
	// Config describes a transformer architecture.
	Config = model.Config
	// Image is a dense input image for vision models.
	Image = model.Image
	// Strategy names a way of distributing inference; an Engine serves
	// StrategyVoltage, the others are what CostSystem predicts against.
	Strategy = cluster.Strategy
	// ClusterOptions configures the emulated device cluster.
	ClusterOptions = cluster.Options
	// RunResult reports one distributed inference (latency, traffic).
	RunResult = cluster.Result
	// NetworkProfile sets emulated bandwidth and latency.
	NetworkProfile = netem.Profile
	// PartitionScheme is a ratio vector over devices (§V-B).
	PartitionScheme = partition.Scheme
	// Matrix is the dense float32 matrix type of the tensor substrate.
	Matrix = tensor.Matrix
	// AttentionOrder identifies a self-attention computation order.
	AttentionOrder = flopcount.Order
	// CostSystem is the analytic latency model of a deployment.
	CostSystem = costmodel.System
	// RankHealth is one worker device's health snapshot.
	RankHealth = cluster.RankHealth
	// HealthState is a device's serving eligibility.
	HealthState = cluster.HealthState
	// MetricsSnapshot is a point-in-time copy of every metric series the
	// serving runtime maintains (Engine.Metrics).
	MetricsSnapshot = metrics.Snapshot
	// HistogramSnapshot is one histogram series in a MetricsSnapshot.
	HistogramSnapshot = metrics.HistogramSnapshot
	// MetricBucket is one bucket of a HistogramSnapshot.
	MetricBucket = metrics.Bucket
	// RequestTrace is one request's span trace, surfaced on
	// RunResult.Trace when ClusterOptions.TraceRequests is set.
	RequestTrace = trace.RequestTrace
	// TraceSpan is one timed step of one request on one device.
	TraceSpan = trace.Span
	// TracePhase classifies a span: compute, comm, or boundary.
	TracePhase = trace.Phase
	// GatewayServer is the HTTP inference gateway: admission scheduling
	// plus the /v1 JSON API over an Engine (internal/server).
	GatewayServer = server.Server
	// GatewayOptions configures a GatewayServer.
	GatewayOptions = server.Options
	// GatewayBackend is the engine interface a GatewayServer fronts;
	// *Engine implements it.
	GatewayBackend = server.Backend
	// Scheduler is the gateway's admission scheduler: bounded per-class
	// EDF queues with explicit load shedding (internal/sched).
	Scheduler = sched.Scheduler
	// SchedulerOptions configures a Scheduler.
	SchedulerOptions = sched.Options
	// SchedulerJob is one unit of admitted work.
	SchedulerJob = sched.Job
	// SchedulerStats is the scheduler's point-in-time queue report.
	SchedulerStats = sched.Stats
	// RequestClass is a request's SLO class (interactive or batch).
	RequestClass = sched.Class
)

// Request SLO classes of the admission scheduler.
const (
	// ClassInteractive is latency-sensitive work (classification).
	ClassInteractive = sched.Interactive
	// ClassBatch is throughput work (generation), first to shed.
	ClassBatch = sched.Batch
)

// Typed load-shedding errors of the gateway, matchable with errors.Is.
var (
	// ErrQueueFull rejects a request whose class queue is at capacity (429).
	ErrQueueFull = sched.ErrQueueFull
	// ErrDeadlineBeforeService rejects a request whose deadline would
	// expire before it could be served (429).
	ErrDeadlineBeforeService = sched.ErrDeadlineBeforeService
	// ErrDraining rejects new requests during graceful shutdown (503).
	ErrDraining = sched.ErrDraining
	// ErrDegraded sheds load because the cluster lost workers (503).
	ErrDegraded = sched.ErrDegraded
)

// NewGateway builds an HTTP inference gateway over backend and starts its
// admission scheduler; mount NewGateway(...).Handler() on any net/http
// server, or use the voltage-server binary.
func NewGateway(backend GatewayBackend, opts GatewayOptions) (*GatewayServer, error) {
	return server.New(backend, opts)
}

// Span phases of a RequestTrace.
const (
	// PhaseCompute is local tensor math (including emulated pacing).
	PhaseCompute = trace.PhaseCompute
	// PhaseComm is blocking collective communication.
	PhaseComm = trace.PhaseComm
	// PhaseBoundary is terminal input distribution / output collection.
	PhaseBoundary = trace.PhaseBoundary
	// PhaseQueue is admission-queue wait before any device touched the
	// request.
	PhaseQueue = trace.PhaseQueue
	// PhaseBatchWait is time a generate sequence waited to join the fused
	// decode batch (see ClusterOptions.MaxBatch).
	PhaseBatchWait = trace.PhaseBatchWait
)

// Device health states (see ClusterOptions.MaxRetries / ProbeAfter).
const (
	// DeviceHealthy serves requests normally.
	DeviceHealthy = cluster.Healthy
	// DeviceProbation is an unhealthy device being offered a probing request.
	DeviceProbation = cluster.Probation
	// DeviceUnhealthy is excluded from new requests.
	DeviceUnhealthy = cluster.Unhealthy
)

// Typed fault-tolerance errors, matchable with errors.Is on any failure a
// request resolves with.
var (
	// ErrTimeout marks a dropped or stalled message that a deadline resolved.
	ErrTimeout = comm.ErrTimeout
	// ErrCorrupt marks a frame whose checksum did not verify.
	ErrCorrupt = comm.ErrCorrupt
	// ErrInjected marks a fault injected by a test transport.
	ErrInjected = comm.ErrInjected
)

// Inference strategies. An Engine refuses every one but StrategyVoltage
// (cluster.ErrStrategyNotServed): the single-device baseline is an Engine
// over one device, and tensor parallelism is measured by voltage-bench.
const (
	// StrategySingle runs the whole model on one device.
	StrategySingle = cluster.StrategySingle
	// StrategyVoltage is the paper's position-wise partitioning.
	StrategyVoltage = cluster.StrategyVoltage
	// StrategyTensorParallel is the Megatron-style baseline.
	StrategyTensorParallel = cluster.StrategyTensorParallel
)

// ParseStrategy resolves a strategy by name ("voltage", "single",
// "tensor-parallel" or "tp"; the empty name is Voltage).
func ParseStrategy(name string) (Strategy, error) { return cluster.ParseStrategy(name) }

// EdgeDefaultProfile mirrors the paper's default 500 Mbps edge network.
var EdgeDefaultProfile = netem.EdgeDefault

// NewEngine builds a distributed inference engine over k emulated devices.
func NewEngine(cfg Config, k int, opts ClusterOptions) (*Engine, error) {
	return core.New(cfg, k, opts)
}

// Model presets (the paper's evaluation set plus small test variants).
var (
	// BERTLarge is BERT-Large-Uncased (24 layers, F=1024, H=16).
	BERTLarge = model.BERTLarge
	// GPT2 is the 12-layer GPT-2 decoder.
	GPT2 = model.GPT2
	// ViTBase is ViT-Base/16 for 224×224 images.
	ViTBase = model.ViTBase
	// Tiny is a 2-layer encoder for experiments and tests.
	Tiny = model.Tiny
	// TinyDecoder is a 2-layer causal decoder for experiments and tests.
	TinyDecoder = model.TinyDecoder
	// TinyVision is a 2-layer vision model for experiments and tests.
	TinyVision = model.TinyVision
)

// Preset resolves a model preset by name ("bert", "gpt2", "vit", ...).
func Preset(name string) (Config, error) { return model.Presets(name) }

// EvenScheme returns the uniform partition scheme over k devices.
func EvenScheme(k int) (*PartitionScheme, error) { return partition.Even(k) }

// WeightedScheme returns a scheme proportional to device weights
// (heterogeneous clusters, §V-B).
func WeightedScheme(weights []float64) (*PartitionScheme, error) {
	return partition.Weighted(weights)
}

// RandomImage generates a deterministic synthetic image for vision
// workloads.
func RandomImage(seed int64, channels, size int) *Image {
	return model.RandomImage(tensor.NewRNG(seed), channels, size)
}

// Calibration fixes the emulated per-device compute rate and the matching
// bandwidth scale so measured experiments keep the paper's compute:comm
// balance on any host.
type Calibration = harness.Calibration

// Calibrate measures this host and returns a calibration that lets maxK
// paced devices run faithfully on the available cores.
func Calibrate(maxK int) Calibration { return harness.Calibrate(maxK) }

// SetComputeWorkers pins the number of goroutines each matrix
// multiplication may use. Set 1 to emulate single-CPU edge devices (the
// paper's setting); 0 restores GOMAXPROCS. Returns the previous value.
func SetComputeWorkers(n int) int { return tensor.SetWorkers(n) }

// SelectAttentionOrder returns the Theorem 2-optimal self-attention
// computation order for input length n, partition length p, feature size f
// and per-head size fh.
func SelectAttentionOrder(n, p, f, fh int) AttentionOrder {
	return flopcount.SelectOrder(flopcount.Shape{N: n, P: p, F: f, FH: fh})
}
