// Package cluster implements the distributed runtime of Section V: a
// terminal device plus K worker devices executing Algorithm 2 (Voltage —
// the device and terminal protocol is package positionwise) over a
// bandwidth-emulated mesh. It serves that one strategy; the baselines the
// paper measures it against run in package harness.
//
// The emulation mirrors the paper's testbed: each worker stands in for one
// single-vCPU VM (run experiments with tensor.SetWorkers(1) so each
// device's math is single-threaded; the workers themselves run in parallel
// goroutines exactly as separate machines would), and all traffic flows
// through netem-shaped links.
//
// The runtime is a persistent serving system: every request — Submit and its
// variants, Infer, GenerateVoltage — waits in one bounded queue and is served
// by one loop (serve.go, batch.go).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"voltage/internal/comm"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/obs"
	"voltage/internal/partition"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// Strategy names a way of distributing inference work: the vocabulary the
// cost model, the experiment harness and voltage-bench share. The cluster
// itself serves StrategyVoltage only.
type Strategy int

// The strategies the evaluation compares.
const (
	// StrategySingle runs the whole model on one device (the paper's
	// single-device baseline; measured as Voltage on a K = 1 cluster).
	StrategySingle Strategy = iota + 1
	// StrategyVoltage is the paper's position-wise partitioning with one
	// All-Gather per layer (Algorithm 2).
	StrategyVoltage
	// StrategyTensorParallel is the Megatron-style baseline with two
	// All-Reduces per layer.
	StrategyTensorParallel
)

// ErrStrategyNotServed refuses a request for a baseline strategy: those are
// experiment subjects of package harness, not modes of the serving runtime.
var ErrStrategyNotServed = errors.New("cluster: only the voltage strategy is served")

// ErrInvalidRate refuses a device rate no device can run at: a DeviceFlops
// that is negative or NaN, or a HeteroDeviceFlops entry that is not a
// positive finite number.
var ErrInvalidRate = errors.New("cluster: invalid device rate")

// Served is the one check every request path makes of a strategy it was
// handed: nil for StrategyVoltage, ErrStrategyNotServed for anything else.
func (s Strategy) Served() error {
	if s != StrategyVoltage {
		return fmt.Errorf("%w (asked %v)", ErrStrategyNotServed, s)
	}
	return nil
}

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategySingle:
		return "single"
	case StrategyVoltage:
		return "voltage"
	case StrategyTensorParallel:
		return "tensor-parallel"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy is the inverse of String, as flags and the gateway's wire
// format spell strategies: "tp" abbreviates "tensor-parallel" and the empty
// name means Voltage.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "voltage":
		return StrategyVoltage, nil
	case "single":
		return StrategySingle, nil
	case "tensor-parallel", "tp":
		return StrategyTensorParallel, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

// Options configures a cluster.
type Options struct {
	// Profile shapes every link (default netem.Unlimited).
	Profile netem.Profile
	// Scheme is the Voltage partition scheme. By default each device's
	// share is its rate (rateScheme): Weighted over the K rates when they
	// differ, Even(k) when they are equal or unpaced.
	Scheme *partition.Scheme
	// Seed derives the replicated model weights (default 1).
	Seed int64
	// DeviceFlops paces every emulated device at this sustained MAC/s
	// rate: after each layer's real math the worker sleeps until the
	// layer's analytic Γ divided by DeviceFlops has elapsed. This makes
	// the emulation faithful even when the host has fewer cores than
	// emulated devices — pick a rate at or below
	// host-per-core-rate × cores ÷ K. Zero disables pacing (latencies
	// then reflect raw host math under whatever contention exists).
	DeviceFlops float64
	// HeteroDeviceFlops, when non-nil, paces worker r at
	// HeteroDeviceFlops[r] instead of DeviceFlops — a heterogeneous edge
	// cluster (§V-B). Length must equal K.
	HeteroDeviceFlops []float64

	// QueueDepth bounds the pending queue every request waits in (default
	// 64; negative values are rejected): Submit and GenerateVoltage block —
	// or fail their context — once this many requests are waiting to enter
	// the mesh. An inference gateway that maintains its own
	// per-class admission queues (internal/sched) should set it low so
	// requests wait in the gateway — where they can be shed, re-ordered by
	// deadline, and withdrawn on cancel — instead of double-buffering in
	// the engine's FIFO.
	QueueDepth int

	// Continuous batching (see DESIGN.md "Continuous batching"). Concurrent
	// generate requests share forward passes: queued prefills coalesce and
	// the KV-cached decode steps of live sequences fuse into one matmul per
	// layer per step, with sequences joining and leaving between steps.
	// Outputs stay bit-identical per sequence to a solo run.

	// MaxBatch caps how many generate sequences may fuse into one decode
	// batch (default 8). 1 restores strictly serial generation — every
	// sequence runs as a degenerate batch of one.
	MaxBatch int
	// BatchWindow is how long the first sequence of a new batch waits for
	// concurrent arrivals to coalesce before its first fused round starts
	// (default 0: start immediately). Sequences can still join a running
	// batch between steps regardless of the window.
	BatchWindow time.Duration

	// Fault tolerance (see DESIGN.md "Fault tolerance"). All knobs default
	// off, preserving the fail-fast behaviour of earlier revisions.

	// RequestTimeout bounds each trip of the terminal over the mesh — one
	// request's pass (each attempt, when retries are enabled), one fused
	// decode step: one that cannot finish in time — a dropped message, a
	// stalled device — ends the round, and what was on the mesh resolves as
	// comm.ErrTimeout (or retries) instead of hanging forever. Zero disables
	// the deadline.
	RequestTimeout time.Duration
	// OpTimeout is the transport watchdog: every Send/Recv on the mesh is
	// individually bounded (comm.WithOpTimeout), so a single lost message
	// inside a collective resolves as an attributed comm.ErrTimeout. Zero
	// disables per-op deadlines.
	OpTimeout time.Duration
	// MaxRetries enables degraded-mode serving: a request that fails with a
	// retryable fault (comm.ErrInjected/ErrTimeout/ErrCorrupt) is re-
	// dispatched up to MaxRetries more times. The blamed rank is marked
	// unhealthy and the retry re-partitions the positions over the
	// surviving workers (comm.NewSubgroup + a fresh partition scheme); when
	// no worker survives, the terminal computes the request locally. Zero
	// disables retries: whatever a failed round interrupted resolves with
	// its cause.
	MaxRetries int
	// ProbeAfter is the probation window: an unhealthy rank is offered one
	// probing request after this much time, recovering to healthy on
	// success. Zero keeps failed ranks excluded until the cluster restarts.
	ProbeAfter time.Duration
	// WrapTransport, when non-nil, wraps each device's raw mesh peer before
	// the integrity-checking frame layer is applied — the fault-injection
	// hook used by the chaos tests (comm.FlakyPeer). Rank k is the
	// terminal.
	WrapTransport func(rank int, p comm.Peer) comm.Peer

	// Observability (see DESIGN.md "Observability"). Metrics stay off the
	// data path: the serving loops record through pre-resolved atomic
	// instruments, a few loads/adds per request.

	// TraceRequests attaches a span trace to every request, surfaced on
	// Result.Trace: one span per (device, layer, phase) step, so a single
	// slow request can be decomposed without the lifetime aggregates.
	TraceRequests bool

	// Diagnostics (see DESIGN.md §11). The flight recorder is always on —
	// it is bounded and lock-cheap.

	// FlightSink, when non-nil, receives an automatic flight-recorder dump
	// (JSON) whenever a request resolves with a non-cancellation error, rate-
	// limited to one dump per 30s. voltage-server wires stderr; the library
	// default is off so fault-injection tests stay quiet.
	FlightSink io.Writer

	// Chaos: deterministic slow-rank fault injection (tests/CI), mirroring
	// the -chaos-kill-* flags. With ChaosSlowFactor > 1, worker
	// ChaosSlowRank's emulated compute rate is divided by the factor — a
	// throttled device, which the default scheme then gives a smaller
	// share like any slower rate. Requires pacing (DeviceFlops or
	// HeteroDeviceFlops) so there is a rate to throttle; ChaosSlowFactor 0
	// disables the injector.
	ChaosSlowRank   int
	ChaosSlowFactor float64
}

// Cluster is an in-process emulation of a terminal device plus K workers.
// Every worker holds a full replica of the model (Voltage's design).
//
// Requests flow through the serving loop in serve.go and batch.go.
type Cluster struct {
	cfg    model.Config
	k      int
	mesh   []*comm.MemPeer // raw transport; ranks 0..k-1 workers, rank k terminal
	peers  []comm.Peer     // mesh wrapped with fault injection, framing, watchdog
	models []*model.Model
	opts   Options
	health *healthTracker

	// scheme is the serving partition scheme of a full round, fixed at
	// construction.
	scheme *partition.Scheme

	// Observability. The flight recorder is always on (bounded,
	// lock-cheap).
	metrics *clusterMetrics
	flight  *obs.FlightRecorder

	// Serving runtime state.
	batcher     *batcher // the serving loop and its pending queue
	pool        *tensor.MatrixPool
	serveOnce   sync.Once
	serveCtx    context.Context
	serveCancel context.CancelFunc
	nextID      atomic.Uint64
}

// terminalRank returns the mesh rank of the terminal device.
func (c *Cluster) terminalRank() int { return c.k }

// NewMem builds an in-memory cluster of k workers plus a terminal for the
// given model configuration.
func NewMem(cfg model.Config, k int, opts Options) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d < 1", k)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Scheme != nil && opts.Scheme.K() != k {
		return nil, fmt.Errorf("cluster: scheme for %d devices, cluster has %d", opts.Scheme.K(), k)
	}
	if opts.HeteroDeviceFlops != nil && len(opts.HeteroDeviceFlops) != k {
		return nil, fmt.Errorf("cluster: %d per-device rates for %d workers", len(opts.HeteroDeviceFlops), k)
	}
	if opts.DeviceFlops < 0 || math.IsNaN(opts.DeviceFlops) {
		return nil, fmt.Errorf("%w: DeviceFlops = %v", ErrInvalidRate, opts.DeviceFlops)
	}
	for r, rate := range opts.HeteroDeviceFlops {
		if !(rate > 0) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("%w: HeteroDeviceFlops[%d] = %v", ErrInvalidRate, r, rate)
		}
	}
	if opts.MaxRetries < 0 {
		return nil, fmt.Errorf("cluster: negative MaxRetries %d", opts.MaxRetries)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("cluster: negative queue depth %d", opts.QueueDepth)
	}
	if opts.MaxBatch < 0 || opts.BatchWindow < 0 {
		return nil, fmt.Errorf("cluster: negative batching knob (max batch %d, window %s)",
			opts.MaxBatch, opts.BatchWindow)
	}
	if opts.ChaosSlowFactor != 0 {
		if opts.ChaosSlowFactor <= 1 {
			return nil, fmt.Errorf("cluster: chaos slow factor %v must exceed 1", opts.ChaosSlowFactor)
		}
		if opts.ChaosSlowRank < 0 || opts.ChaosSlowRank >= k {
			return nil, fmt.Errorf("cluster: chaos slow rank %d outside [0,%d)", opts.ChaosSlowRank, k)
		}
		if opts.DeviceFlops <= 0 && opts.HeteroDeviceFlops == nil {
			return nil, fmt.Errorf("cluster: chaos slow rank needs pacing (DeviceFlops or HeteroDeviceFlops)")
		}
	}
	queueDepth := opts.QueueDepth
	if queueDepth == 0 {
		queueDepth = defaultQueueDepth
	}
	mesh, err := comm.NewMemMesh(k+1, opts.Profile)
	if err != nil {
		return nil, err
	}
	cm := newClusterMetrics(k)
	// Every payload crossing the mesh is integrity-checked: fault injection
	// (when configured) sits between the raw transport and the frame layer,
	// so injected corruption is caught by the receiver's CRC; the per-op
	// watchdog wraps outermost so even a framed message that never arrives
	// resolves as a typed timeout. Both fault layers report into the
	// metrics tap, counting even faults a later retry masks.
	peers := make([]comm.Peer, k+1)
	for r := range peers {
		var p comm.Peer = mesh[r]
		if opts.WrapTransport != nil {
			p = opts.WrapTransport(r, p)
		}
		p = comm.NewFramed(p, cm.fault)
		peers[r] = comm.WithOpTimeout(p, opts.OpTimeout, cm.fault)
	}
	// Every worker materializes the same weights from the shared seed —
	// Voltage replicates the model instead of shipping weights.
	models := make([]*model.Model, k)
	for r := 0; r < k; r++ {
		m, err := model.NewRandom(cfg, opts.Seed)
		if err != nil {
			_ = peers[0].Close()
			return nil, err
		}
		models[r] = m
	}
	c := &Cluster{
		cfg: cfg, k: k, mesh: mesh, peers: peers,
		models: models,
		scheme: opts.Scheme, opts: opts,
		health:  newHealthTracker(k, opts.ProbeAfter),
		metrics: cm,
		pool:    &tensor.MatrixPool{},
	}
	c.flight = obs.NewFlightRecorder(0, 0)
	// Health transitions mirror into the per-rank gauge and the flight
	// recorder; the tracker invokes this under its own lock, so the handler
	// must not call back into health (both sinks only touch their own state).
	c.health.onTransition = func(rank int, from, to HealthState) {
		cm.healthTransition(rank, from, to)
		c.flight.Eventf("health", rank, "rank %d: %s -> %s", rank, from, to)
	}
	if c.scheme == nil {
		if c.scheme, err = c.rateScheme(c.allRanks()); err != nil {
			_ = peers[0].Close()
			return nil, err
		}
	}
	cm.setPartitionRatios(c.scheme.Ratios())
	c.batcher = newBatcher(c, queueDepth)
	c.serveCtx, c.serveCancel = context.WithCancel(context.Background())
	return c, nil
}

// Metrics returns a point-in-time snapshot of every registered series.
func (c *Cluster) Metrics() metrics.Snapshot {
	return c.metrics.reg.Snapshot()
}

// MetricsRegistry exposes the cluster's registry so an embedding process
// can mount it on its own admin surface.
func (c *Cluster) MetricsRegistry() *metrics.Registry {
	return c.metrics.reg
}

// K returns the number of worker devices.
func (c *Cluster) K() int { return c.k }

// defaultMaxBatch is the fused decode width cap when Options.MaxBatch is 0.
const defaultMaxBatch = 8

// maxBatch resolves the configured fused-width cap against its default.
// The step frame carries the width as u16, bounding any configuration.
func (c *Cluster) maxBatch() int {
	if c.opts.MaxBatch > 0 {
		if c.opts.MaxBatch > 65535 {
			return 65535
		}
		return c.opts.MaxBatch
	}
	return defaultMaxBatch
}

// BatchWidth reports the generate sequences currently live in or waiting
// for the fused decode batch (classifies in the queue are not counted) — the concurrency a batch-aware admission
// estimate should divide service time by.
func (c *Cluster) BatchWidth() int { return c.batcher.width() }

// Config returns the model configuration.
func (c *Cluster) Config() model.Config { return c.cfg }

// Model returns worker r's model replica (terminal-side pre/post-processing
// uses replica 0, which is bit-identical to the others).
func (c *Cluster) Model(r int) *model.Model { return c.models[r] }

// SetBandwidth changes every device's link rate mid-experiment (the Fig. 5
// sweep).
func (c *Cluster) SetBandwidth(mbps float64) {
	for r := 0; r <= c.k; r++ {
		c.mesh[0].NIC(r).SetRate(netem.Mbps(mbps))
	}
}

// Close stops the serving runtime and shuts the mesh down. Every wrapped
// peer is closed so stalled fault-injection receives unblock too.
func (c *Cluster) Close() {
	c.serveCancel()
	for _, p := range c.peers {
		_ = p.Close()
	}
}

// Result reports one distributed inference.
type Result struct {
	// ID is the request's cluster-unique admission id.
	ID uint64
	// Output is the final hidden-state matrix as assembled at the terminal
	// device: N×F from Submit, the classifier's pooled row (1×F) from
	// SubmitTokens and SubmitPooled.
	Output *tensor.Matrix
	// Latency is the terminal-observed time from input broadcast to
	// result assembly — the paper's measurement — of the final attempt,
	// including any time its pass waited on the mesh behind the one
	// before it.
	Latency time.Duration
	// PerDevice holds each worker's traffic during this inference's final
	// attempt (index = worker rank; the last entry is the terminal), exact:
	// a worker runs passes one after the other and counts its own across
	// its run of this one, the terminal its scatter and its collect.
	PerDevice []comm.Stats
	// Strategy echoes the strategy requested — always StrategyVoltage.
	Strategy Strategy
	// Attempts counts dispatches of this request: 1 is a clean first-try
	// success, more means fault-tolerant retries fired.
	Attempts int
	// Degraded reports that the final attempt ran on fewer than K workers
	// (or, with an empty Live set, on the terminal alone).
	Degraded bool
	// Live lists the worker ranks that served the final attempt. Nil means
	// the full cluster.
	Live []int
	// Trace holds the request's per-layer span trace when
	// Options.TraceRequests is set (nil otherwise). Under retries it is the
	// final attempt's trace.
	Trace *trace.RequestTrace
}

// TotalBytesSent sums payload bytes sent by the workers (excluding the
// terminal's input broadcast), the quantity the paper's per-layer
// communication formulas describe.
func (r *Result) TotalBytesSent() int64 {
	var total int64
	for _, s := range r.PerDevice[:len(r.PerDevice)-1] {
		total += s.BytesSent
	}
	return total
}

// Infer runs one distributed inference of the embedded input x under the
// given strategy (StrategyVoltage, the one served) and reports the
// terminal-observed latency. x is the N×F
// feature matrix produced by pre-processing (embedding). It is a blocking
// wrapper over Submit; concurrent callers are sequenced by the serving
// loop.
func (c *Cluster) Infer(ctx context.Context, strategy Strategy, x *tensor.Matrix) (*Result, error) {
	pend, err := c.Submit(ctx, strategy, x)
	if err != nil {
		return nil, err
	}
	return pend.Wait(ctx)
}

// allRanks returns the full worker rank list [0, k).
func (c *Cluster) allRanks() []int {
	ranks := make([]int, c.k)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// deviceRate returns worker rank's emulated compute rate (0 = unpaced).
// The chaos slow-rank injector throttles one rank deterministically by
// dividing its rate — every paced interval on that rank stretches by the
// factor, exactly what a thermally-limited or contended edge device does.
func (c *Cluster) deviceRate(rank int) float64 {
	rate := c.opts.DeviceFlops
	if rank >= 0 && rank < len(c.opts.HeteroDeviceFlops) {
		rate = c.opts.HeteroDeviceFlops[rank]
	}
	if c.opts.ChaosSlowFactor > 1 && rank == c.opts.ChaosSlowRank {
		rate /= c.opts.ChaosSlowFactor
	}
	return rate
}

// rateScheme is the scheme a round over ranks serves when Options.Scheme does
// not set one: each rank's share is its compute rate (§V-B) — Weighted over
// the rates when they differ, Even when they are equal, unpaced included. A
// full round slices by it over every rank from the first pass, a degraded one
// over the survivors.
func (c *Cluster) rateScheme(ranks []int) (*partition.Scheme, error) {
	rates := make([]float64, len(ranks))
	equal := true
	for i, r := range ranks {
		rates[i] = c.deviceRate(r)
		equal = equal && rates[i] == rates[0]
	}
	if equal {
		return partition.Even(len(ranks))
	}
	return partition.Weighted(rates)
}

// paceRank sleeps until worker rank's emulated compute duration for flops has
// elapsed since start. Unpaced, it is a no-op and latencies reflect raw host
// math.
func (c *Cluster) paceRank(ctx context.Context, rank int, start time.Time, flops int64) error {
	budget := c.paceBudget(rank, flops)
	if budget <= 0 {
		return nil
	}
	return netem.SleepUntil(ctx, start.Add(budget))
}

// paceBudget is the time worker rank's emulated device takes over flops
// (0 = unpaced).
func (c *Cluster) paceBudget(rank int, flops int64) time.Duration {
	rate := c.deviceRate(rank)
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(flops) / rate * float64(time.Second))
}
