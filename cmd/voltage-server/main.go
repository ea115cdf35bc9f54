// Command voltage-server is the inference gateway: the network front door
// of the Voltage serving runtime. It exposes the HTTP JSON API
// (/v1/classify, streaming /v1/generate, /v1/queue) over an admission
// scheduler with per-class bounded queues, deadline-aware ordering and
// explicit load shedding, in front of either
//
//   - a local in-process engine (-local K): the emulated cluster with its
//     full serving runtime, health tracking and metrics — the default; or
//   - a TCP mesh (-addrs ...): the server joins an existing voltage-worker
//     fleet as the terminal device and drives classification requests
//     through it (generation requires the local engine).
//
// A quick local deployment:
//
//	voltage-server -local 3 -model tiny -listen 127.0.0.1:8080
//	curl -s localhost:8080/v1/classify -d '{"text":"hello edge"}'
//	curl -sN localhost:8080/v1/generate -d '{"prompt":[1,2,3],"steps":8}'
//	curl -s localhost:8080/v1/queue
//
// The gateway sheds rather than blocks: a full class queue answers 429, a
// draining or degraded cluster answers 503, and every shed is counted on
// /metrics (voltage_gateway_shed_total). SIGINT/SIGTERM drains gracefully:
// in-flight requests finish, new ones are rejected, and the process exits
// once the queues are empty or -drain-timeout elapses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/core"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/sched"
	"voltage/internal/server"
	"voltage/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "voltage-server:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("voltage-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "gateway HTTP listen address (port 0 picks a free port)")
	admin := fs.String("admin", "", "separate admin listener address (metrics + pprof; empty = gateway-only)")
	local := fs.Int("local", 3, "emulated worker count for the in-process engine")
	addrs := fs.String("addrs", "", "join a TCP worker mesh as the terminal instead of -local (comma-separated host:port list, this process last)")
	modelName := fs.String("model", "tiny", "model preset")
	layers := fs.Int("layers", 2, "stack depth (0 = full paper depth)")
	seed := fs.Int64("seed", 1, "shared weight seed")
	bandwidth := fs.Float64("bandwidth", 0, "emulated link bandwidth in Mbps (0 = unshaped)")
	deviceFlops := fs.Float64("device-flops", 0, "emulated per-device compute rate in MAC/s (0 = unpaced)")
	opTimeout := fs.Duration("op-timeout", 0, "per-message watchdog deadline (0 = none)")
	requestTimeout := fs.Duration("request-timeout", 0, "engine-level per-request deadline (0 = none)")
	retries := fs.Int("retries", 0, "degraded-mode retry budget (0 = fail fast)")
	traceReq := fs.Bool("trace", false, "attach span traces to every request")
	engineQueue := fs.Int("engine-queue", 0, "engine admission-queue depth (0 = default; gateways set this low to avoid double-buffering)")
	maxBatch := fs.Int("max-batch", 0, "max generate sequences fused per decode step (0 = default 8, 1 = serial)")
	batchWindow := fs.Duration("batch-window", 0, "how long the first sequence of a batch waits for others to coalesce (0 = start immediately)")
	qInteractive := fs.Int("queue-interactive", 0, "interactive class queue depth (0 = default 64)")
	qBatch := fs.Int("queue-batch", 0, "batch class queue depth (0 = default 16)")
	gwWorkers := fs.Int("gateway-workers", 0, "concurrent requests in service (0 = default 4)")
	burst := fs.Int("interactive-burst", 0, "interactive dispatches per batch dispatch under contention (0 = default 4)")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline applied to requests that carry none (0 = unbounded)")
	estInteractive := fs.Duration("estimate-interactive", 0, "expected interactive service time for deadline shedding")
	estBatch := fs.Duration("estimate-batch", 0, "expected batch service time for deadline shedding")
	chaosKillRank := fs.Int("chaos-kill-rank", -1, "fault injection (-local only): worker rank whose transport dies mid-run (-1 = none; pair with -chaos-kill-after and -retries)")
	chaosKillAfter := fs.Int64("chaos-kill-after", 0, "fault injection: the doomed rank's n-th transport receive, and every later one, fails")
	chaosSlowRank := fs.Int("chaos-slow-rank", -1, "fault injection (-local only): worker rank to throttle by -chaos-slow-factor; the scheme weighs ranks by rate, so it gets a smaller share (-1 = none; requires -device-flops)")
	chaosSlowFactor := fs.Float64("chaos-slow-factor", 0, "fault injection: divide the slow rank's emulated compute rate by this factor (> 1)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
	hold := fs.Duration("hold", 0, "exit (with drain) after this long instead of waiting for a signal (tests, smoke)")
	meshTimeout := fs.Duration("mesh-timeout", 10*time.Minute, "TCP mesh formation budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := model.Presets(*modelName)
	if err != nil {
		return err
	}
	if *layers > 0 {
		cfg = cfg.Scaled(*layers)
	}
	tensor.SetWorkers(1) // single-CPU device emulation

	// Assemble the backend: in-process engine or TCP-mesh terminal.
	var (
		backend  server.Backend
		registry *metrics.Registry
		closers  []func()
	)
	if *addrs != "" {
		list := strings.Split(*addrs, ",")
		if len(list) < 2 {
			return fmt.Errorf("need at least one worker and one terminal in -addrs")
		}
		ctx, cancel := context.WithTimeout(context.Background(), *meshTimeout)
		defer cancel()
		mb, err := newMeshBackend(ctx, cfg, list, *seed, *bandwidth, *opTimeout)
		if err != nil {
			return err
		}
		closers = append(closers, mb.close)
		backend = mb
		registry = metrics.NewRegistry()
		metrics.RegisterRuntime(registry)
		fmt.Fprintf(w, "mesh formed: terminal of %d workers\n", len(list)-1)
	} else {
		if *local < 1 {
			return fmt.Errorf("-local %d < 1", *local)
		}
		eng, err := core.New(cfg, *local, cluster.Options{
			Profile:         netem.Profile{BandwidthMbps: *bandwidth},
			Seed:            *seed,
			DeviceFlops:     *deviceFlops,
			OpTimeout:       *opTimeout,
			RequestTimeout:  *requestTimeout,
			MaxRetries:      *retries,
			TraceRequests:   *traceReq,
			QueueDepth:      *engineQueue,
			MaxBatch:        *maxBatch,
			BatchWindow:     *batchWindow,
			ChaosSlowRank:   *chaosSlowRank,
			ChaosSlowFactor: *chaosSlowFactor,
			WrapTransport:   chaosWrap(*chaosKillRank, *chaosKillAfter),
			// Dump the flight recorder to stderr on request failures, so a
			// crashed deployment leaves its last-moments diagnostics in the
			// process log even when nobody curled /debug/flight in time.
			FlightSink: os.Stderr,
		})
		if err != nil {
			return err
		}
		closers = append(closers, eng.Close)
		backend = eng
		registry = eng.Cluster().MetricsRegistry()
		if registry == nil {
			registry = metrics.NewRegistry()
		}
	}
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	gw, err := server.New(backend, server.Options{
		Registry: registry,
		Sched: sched.Options{
			InteractiveDepth: *qInteractive,
			BatchDepth:       *qBatch,
			Workers:          *gwWorkers,
			InteractiveBurst: *burst,
			DefaultDeadline:  *defaultDeadline,
		},
		EstimateInteractive: *estInteractive,
		EstimateBatch:       *estBatch,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(w, "gateway listening on %s\n", ln.Addr())

	if *admin != "" {
		adminSrv, err := metrics.StartAdmin(*admin, registry, func() metrics.Health {
			ranks := backend.Health()
			ok := len(ranks) == 0
			for _, rh := range ranks {
				if rh.State != cluster.Unhealthy {
					ok = true
				}
			}
			return metrics.Health{OK: ok}
		})
		if err != nil {
			return err
		}
		closers = append(closers, func() { _ = adminSrv.Close() })
		fmt.Fprintf(w, "admin listening on %s\n", adminSrv.Addr())
	}

	// Wait for a shutdown signal (or the -hold budget), then drain: stop
	// admitting, let in-flight work finish, stop the listener.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var holdCh <-chan time.Time
	if *hold > 0 {
		holdCh = time.After(*hold)
	}
	select {
	case sig := <-sigCh:
		fmt.Fprintf(w, "%v: draining\n", sig)
	case <-holdCh:
		fmt.Fprintf(w, "hold elapsed: draining\n")
	case err := <-serveErr:
		return fmt.Errorf("gateway listener: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Drain(drainCtx); err != nil {
		fmt.Fprintf(w, "drain incomplete: %v\n", err)
	} else {
		fmt.Fprintln(w, "drained")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = srv.Close()
	}
	<-serveErr
	return nil
}

// meshBackend drives classification requests through an existing
// voltage-worker TCP mesh, with this process as the terminal device. The
// hand-rolled mesh protocol is not request-tagged, so requests are
// serialized; the gateway's queues still provide admission control and
// shedding in front of it.
type meshBackend struct {
	cfg    model.Config
	peer   comm.Peer
	m      *model.Model
	scheme *partition.Scheme
	ranks  []int // the worker ranks [0, k)
	nextID atomic.Uint64

	mu sync.Mutex // one request on the mesh at a time
	// broken is set, under mu, by the first request that fails once its
	// scatter has begun. The workers finish such a request anyway and their
	// replies stay queued on the links, where the next request read on the
	// same rank would assemble them as its own answer; TCP links cannot be
	// flushed and the frames carry no request id, so the backend refuses
	// everything from then on.
	broken error
}

func newMeshBackend(ctx context.Context, cfg model.Config, addrs []string, seed int64, bandwidth float64, opTimeout time.Duration) (*meshBackend, error) {
	k := len(addrs) - 1
	m, err := model.NewRandom(cfg, seed)
	if err != nil {
		return nil, err
	}
	scheme, err := partition.Even(k)
	if err != nil {
		return nil, err
	}
	mesh, err := comm.NewTCPMesh(ctx, k, addrs, netem.Profile{BandwidthMbps: bandwidth})
	if err != nil {
		return nil, err
	}
	ranks := make([]int, k)
	for i := range ranks {
		ranks[i] = i
	}
	peer := comm.WithOpTimeout(comm.NewFramed(mesh), opTimeout)
	return &meshBackend{cfg: cfg, peer: peer, m: m, scheme: scheme, ranks: ranks}, nil
}

// close shuts the worker fleet down (empty frame per worker) and closes
// the mesh.
func (b *meshBackend) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range b.ranks {
		_ = b.peer.Send(ctx, r, []byte{})
	}
	_ = b.peer.Close()
}

func (b *meshBackend) Config() model.Config { return b.cfg }

// Health: the raw mesh has no health tracker; report every rank healthy so
// the scheduler applies no degradation shedding.
func (b *meshBackend) Health() []cluster.RankHealth { return nil }

func (b *meshBackend) GenerateStream(context.Context, []int, int, func(int)) (*cluster.GenerateResult, error) {
	return nil, fmt.Errorf("voltage-server: generation requires the -local engine (mesh workers serve classification)")
}

// ClassifyTokens runs one request through the mesh: scatter the token ids,
// assemble the pooled row — the terminal half of package positionwise —
// classify.
func (b *meshBackend) ClassifyTokens(ctx context.Context, strategy cluster.Strategy, ids []int) (*core.Prediction, error) {
	if err := strategy.Served(); err != nil {
		return nil, err
	}
	if err := b.cfg.CheckTokens(ids); err != nil {
		return nil, err
	}
	ranges, err := positionwise.Slice(b.m, b.scheme, len(ids), false)
	if err != nil {
		return nil, err
	}
	read := positionwise.Pooled(b.m.Classifier, ranges)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken != nil {
		return nil, b.broken
	}
	start := time.Now()
	err = positionwise.Scatter(ctx, b.peer, b.ranks, positionwise.TokenFrame(ids))
	var out *tensor.Matrix
	if err == nil {
		out, err = positionwise.Assemble(ctx, b.peer, nil, b.ranks, read.Replies(ranges))
	}
	if err != nil {
		b.broken = fmt.Errorf("voltage-server: the mesh is out of step since a request failed mid-flight (%v); restart the fleet: %w",
			err, sched.ErrDegraded)
		return nil, err
	}
	latency := time.Since(start)
	logits, err := b.m.Classifier.Logits(out)
	if err != nil {
		return nil, err
	}
	return &core.Prediction{
		Class:  model.Argmax(logits),
		Logits: logits,
		Run: &cluster.Result{
			ID:       b.nextID.Add(1),
			Output:   out,
			Latency:  latency,
			Strategy: strategy,
			Attempts: 1,
		},
	}, nil
}

// chaosWrap builds the transport hook for -chaos-kill-rank: the doomed
// rank's n-th receive (and every later one) fails, emulating a device that
// dies at a deterministic protocol step — CI's end-to-end worker-kill smoke
// drives the batched recovery path with it.
func chaosWrap(rank int, after int64) func(int, comm.Peer) comm.Peer {
	if rank < 0 || after <= 0 {
		return nil
	}
	return func(r int, p comm.Peer) comm.Peer {
		if r != rank {
			return p
		}
		return &comm.FlakyPeer{Inner: p, FailRecvAfter: after}
	}
}
