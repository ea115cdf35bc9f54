package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/pipeline"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/tparallel"
)

// The one-shot mesh is where the evaluation's subjects that are not the
// system run: tensor parallelism, pipeline parallelism, the int8 All-Gather
// and full-recompute generation. A figure needs no queue, supervisor, health
// tracking, metrics or trace, so a run is K worker goroutines plus the
// caller as terminal over a fresh framed in-memory mesh, and nothing more.
// It keeps what makes its numbers comparable with a measured Voltage run
// through cluster.Infer: the same link model, the same pacing rule (sleep
// out Γ ÷ rate after the real math) and the same latency definition (first
// scattered byte → assembled output). The single-device baseline is not a
// subject here: it is Voltage on a K = 1 cluster.

// Mesh is a one-shot emulated deployment of K workers and a terminal.
type Mesh struct {
	// Model is the one replica, read-only, that every device computes from.
	Model *model.Model
	K     int
	// Profile is the paper-scale network; each run shapes a fresh mesh with
	// Cal.Apply(Profile) and paces every worker at Cal.DeviceFlops (a zero
	// calibration leaves both literal and unpaced).
	Profile netem.Profile
	Cal     Calibration

	seed   int64
	ranks  []int                       // the worker ranks [0, K); the terminal is rank K
	shards [][]*tparallel.ShardedLayer // per rank, built by the first TensorParallel run
}

// NewMesh materializes the model from seed for runs over k workers.
func NewMesh(cfg model.Config, k int, profile netem.Profile, cal Calibration, seed int64) (*Mesh, error) {
	if k < 1 {
		return nil, fmt.Errorf("harness: k = %d < 1", k)
	}
	m, err := model.NewRandom(cfg, seed)
	if err != nil {
		return nil, err
	}
	mesh := &Mesh{Model: m, K: k, Profile: profile, Cal: cal, seed: seed, ranks: make([]int, k)}
	for r := range mesh.ranks {
		mesh.ranks[r] = r
	}
	return mesh, nil
}

// paperLink is a paper-scale link at the given bandwidth.
func paperLink(mbps float64) netem.Profile {
	return netem.Profile{BandwidthMbps: mbps, Latency: 200 * time.Microsecond}
}

// system builds the serving cluster a measured Voltage number comes from: k
// devices (1 is the single-device baseline) shaped, paced and seeded like m.
// traced attaches a span trace to each of its requests.
func (m *Mesh) system(k int, traced bool) (*cluster.Cluster, error) {
	return cluster.NewMem(m.Model.Cfg, k, cluster.Options{
		Profile:       m.Cal.Apply(m.Profile),
		Seed:          m.seed,
		DeviceFlops:   m.Cal.DeviceFlops,
		TraceRequests: traced,
	})
}

// voltage serves x once on a fresh system of k devices.
func (m *Mesh) voltage(ctx context.Context, k int, x *tensor.Matrix) (*cluster.Result, error) {
	c, err := m.system(k, false)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Infer(ctx, cluster.StrategyVoltage, x)
}

// Run reports one run on the mesh in the serving cluster's own terms —
// Output, Latency (the terminal's first scattered byte → assembled output),
// PerDevice traffic, TotalBytesSent — plus the workers' summed paced compute
// time and time blocked in collectives.
type Run struct {
	cluster.Result
	Compute, Comm time.Duration
}

// worker is one device goroutine's side of a run.
type worker struct {
	rank          int
	peer          comm.Peer // the whole mesh; the terminal is rank K
	group         comm.Peer // the K workers
	rate          float64
	compute, comm time.Duration
}

// pace sleeps out what is left of flops ÷ rate since start and books the
// span as compute.
func (w *worker) pace(ctx context.Context, start time.Time, flops int64) error {
	if w.rate > 0 {
		budget := time.Duration(float64(flops) / w.rate * float64(time.Second))
		if err := netem.SleepUntil(ctx, start.Add(budget)); err != nil {
			return err
		}
	}
	w.compute += time.Since(start)
	return nil
}

func (w *worker) onComm(d time.Duration) { w.comm += d }

// recvMatrix receives and decodes one matrix.
func recvMatrix(ctx context.Context, p comm.Peer, from int) (*tensor.Matrix, error) {
	blob, err := p.Recv(ctx, from)
	if err != nil {
		return nil, err
	}
	x, _, err := tensor.Decode(blob)
	comm.ReleaseBuffer(blob)
	return x, err
}

// run executes device on K goroutines and the terminal roles over a fresh
// mesh — the first on the caller's goroutine, which times it; a second is
// the pipeline's feeder. The first failure is the one reported and cancels
// every other role; run returns only once all of them have.
func (m *Mesh) run(ctx context.Context, device func(context.Context, *worker) error, terminal ...func(context.Context, comm.Peer) error) (*Run, error) {
	raw, err := comm.NewMemMesh(m.K+1, m.Cal.Apply(m.Profile))
	if err != nil {
		return nil, err
	}
	defer raw[0].Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		cause error
	)
	role := func(f func() error) {
		defer wg.Done()
		if err := f(); err != nil {
			once.Do(func() { cause = err; cancel() })
		}
	}
	workers := make([]*worker, m.K)
	for r := range workers {
		peer := comm.NewFramed(raw[r])
		group, err := comm.NewSubgroup(peer, m.ranks)
		if err != nil {
			return nil, err
		}
		workers[r] = &worker{rank: r, peer: peer, group: group, rate: m.Cal.DeviceFlops}
	}
	term := comm.NewFramed(raw[m.K])
	wg.Add(m.K + len(terminal))
	for _, w := range workers {
		go role(func() error { return device(ctx, w) })
	}
	for _, t := range terminal[1:] {
		go role(func() error { return t(ctx, term) })
	}
	start := time.Now()
	role(func() error { return terminal[0](ctx, term) })
	res := &Run{Result: cluster.Result{Latency: time.Since(start), PerDevice: make([]comm.Stats, m.K+1)}}
	wg.Wait()
	if cause != nil {
		return nil, cause
	}
	for r, w := range workers {
		res.PerDevice[r] = w.peer.Stats()
		res.Compute += w.compute
		res.Comm += w.comm
	}
	res.PerDevice[m.K] = term.Stats()
	return res, nil
}

// infer is the shape the single-request subjects share: the terminal
// scatters x to every worker, each worker runs device on it, and collect
// receives the output.
func (m *Mesh) infer(ctx context.Context, x *tensor.Matrix,
	device func(context.Context, *worker, *tensor.Matrix) error,
	collect func(context.Context, comm.Peer) (*tensor.Matrix, error)) (*Run, error) {
	var out *tensor.Matrix
	res, err := m.run(ctx, func(ctx context.Context, w *worker) error {
		in, err := recvMatrix(ctx, w.peer, m.K)
		if err != nil {
			return err
		}
		return device(ctx, w, in)
	}, func(ctx context.Context, p comm.Peer) (err error) {
		if err = positionwise.Scatter(ctx, p, m.ranks, tensor.Encode(nil, x)); err == nil {
			out, err = collect(ctx, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Output = out
	return res, nil
}

// TensorParallel runs one Megatron-style inference of x: every worker holds
// a head/FFN shard, two ring All-Reduces per layer, worker 0 reports.
func (m *Mesh) TensorParallel(ctx context.Context, x *tensor.Matrix) (*Run, error) {
	for r := len(m.shards); r < m.K; r++ {
		shard, err := tparallel.ShardModel(m.Model, r, m.K)
		if err != nil {
			return nil, err
		}
		m.shards = append(m.shards, shard)
	}
	return m.infer(ctx, x, func(ctx context.Context, w *worker, cur *tensor.Matrix) (err error) {
		for li, shard := range m.shards[w.rank] {
			shard.Pace, shard.OnComm = w.pace, w.onComm
			if cur, err = shard.Forward(ctx, w.group, cur, true); err != nil {
				return fmt.Errorf("layer %d: %w", li, err)
			}
		}
		if w.rank != 0 {
			return nil
		}
		return w.peer.Send(ctx, m.K, tensor.Encode(nil, cur))
	}, func(ctx context.Context, p comm.Peer) (*tensor.Matrix, error) {
		return recvMatrix(ctx, p, 0)
	})
}

// positionwise runs one pass of Algorithm 2 over an even partition — cut as
// the serving runtime cuts it (positionwise.Slice) — with the given
// between-layer gather (nil: the exact All-Gather).
func (m *Mesh) positionwise(ctx context.Context, x *tensor.Matrix, gather positionwise.Gather) (*Run, error) {
	scheme, err := partition.Even(m.K)
	if err != nil {
		return nil, err
	}
	ranges, err := positionwise.Slice(m.Model, scheme, x.Rows(), false)
	if err != nil {
		return nil, err
	}
	return m.infer(ctx, x, func(ctx context.Context, w *worker, in *tensor.Matrix) error {
		dev := &positionwise.Device{
			Model: m.Model, Peer: w.peer, Terminal: m.K, Group: w.group,
			Ex: comm.NewExchange(nil), Gather: gather,
			Pace: func(ctx context.Context, _ int, start time.Time, flops int64) error {
				return w.pace(ctx, start, flops)
			},
			OnComm: func(_ int, d time.Duration) { w.onComm(d) },
		}
		return dev.Classify(ctx, in, ranges)
	}, func(ctx context.Context, p comm.Peer) (*tensor.Matrix, error) {
		return positionwise.Assemble(ctx, p, nil, m.ranks, ranges)
	})
}

// Quantized runs one position-wise inference of x whose All-Gathers carry
// int8 payloads — the communication optimization the paper's conclusion
// points to.
func (m *Mesh) Quantized(ctx context.Context, x *tensor.Matrix) (*Run, error) {
	return m.positionwise(ctx, x, positionwise.Quantized)
}

// Recompute decodes up to steps tokens greedily without a KV cache: every
// step embeds the whole prefix and runs it position-wise with exact gathers.
// It returns the prompt plus continuation and one Run per step.
func (m *Mesh) Recompute(ctx context.Context, prompt []int, steps int) ([]int, []*Run, error) {
	if m.Model.Cfg.Kind != model.KindDecoder {
		return nil, nil, fmt.Errorf("harness: %s is not a decoder model", m.Model.Cfg.Name)
	}
	tokens := append([]int(nil), prompt...)
	var runs []*Run
	for i := 0; i < steps && len(tokens) < m.Model.Cfg.MaxSeq; i++ {
		x, err := m.Model.Embed.EmbedTokens(tokens)
		if err != nil {
			return nil, nil, err
		}
		res, err := m.positionwise(ctx, x, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: step %d: %w", i, err)
		}
		logits, err := m.Model.LM.NextTokenLogits(res.Output)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, res)
		tokens = append(tokens, model.Argmax(logits))
	}
	return tokens, runs, nil
}

// PipelineResult reports a pipelined multi-request run; its Latency is the
// makespan, first send to last result.
type PipelineResult struct {
	*Run
	// Outputs are the final hidden states per request, in order.
	Outputs []*tensor.Matrix
	// FirstLatency is the terminal-observed latency of the first request
	// (what a single user experiences — the paper's point: pipelining
	// cannot reduce this).
	FirstLatency time.Duration
}

// Throughput returns completed requests per second over the makespan.
func (r *PipelineResult) Throughput() float64 {
	if r.Latency <= 0 {
		return 0
	}
	return float64(len(r.Outputs)) / r.Latency.Seconds()
}

// Pipeline streams the same-shaped requests xs through the layer stack split
// stage-wise across the K workers. The terminal feeds stage 0 and drains the
// last stage concurrently, so the pipeline actually fills.
func (m *Mesh) Pipeline(ctx context.Context, xs []*tensor.Matrix) (*PipelineResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("harness: no pipeline requests")
	}
	res := &PipelineResult{Outputs: make([]*tensor.Matrix, 0, len(xs))}
	var err error
	res.Run, err = m.run(ctx, func(ctx context.Context, w *worker) error {
		stage, err := pipeline.ShardLayers(m.Model, w.rank, m.K)
		if err != nil {
			return err
		}
		return pipeline.RunStage(ctx, w.peer, m.K, stage, w.rank, m.K, len(xs), w.pace)
	}, func(ctx context.Context, p comm.Peer) error {
		start := time.Now()
		for i := range xs {
			out, err := recvMatrix(ctx, p, m.K-1)
			if err != nil {
				return err
			}
			if i == 0 {
				res.FirstLatency = time.Since(start)
			}
			res.Outputs = append(res.Outputs, out)
		}
		return nil
	}, func(ctx context.Context, p comm.Peer) error {
		var buf []byte
		for _, x := range xs {
			buf = tensor.Encode(buf[:0], x)
			if err := p.Send(ctx, 0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
