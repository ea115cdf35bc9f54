package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"voltage"
	"voltage/internal/attention"
	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/quantize"
	"voltage/internal/sched"
	"voltage/internal/server"
	"voltage/internal/tensor"
)

// The layer ladder times one public function of each layer, alone on one
// goroutine, at the shapes the workloads produce: a partition of P=32 rows
// of an N=96 prompt during prefill, and B=8 sequences at cache length 64
// during decode. A regression found end to end is localised by the rung
// that moved.
const (
	ladderN     = 96
	ladderP     = 32
	ladderB     = 8
	ladderCache = 64
	ladderReps  = 200  // a rung stops at this many reps or at its time budget
	ladderMin   = 10   // reps a rung makes however long they take
	sleepReps   = 1000 // p99 of the sleep overshoot needs ten samples beyond it
	sleepFor    = 2 * time.Millisecond
)

// A smoke run (budget below a millisecond per rung is never a real one)
// makes two reps per rung and thirty sleeps.
func ladderFloor(budget time.Duration) (minReps, sleeps int) {
	if budget < time.Millisecond {
		return 2, 30
	}
	return ladderMin, sleepReps
}

// rung is one timed operation. setup runs untimed and returns the
// operation; it runs again after every `fresh` operations when the
// operation wears out its state (a KV cache that grows per step).
type rung struct {
	name  string
	fresh int
	setup func() (op func() error, err error)
}

// static is the set-up of an operation that needs none.
func static(op func() error) func() (func() error, error) {
	return func() (func() error, error) { return op, nil }
}

// timeRung runs r for up to ladderReps repetitions or budget, whichever
// ends first, and returns the per-operation times and allocations.
func timeRung(r rung, budget time.Duration) (ns []float64, allocs float64, err error) {
	op, err := r.setup()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", r.name, err)
	}
	for i := 0; i < 3; i++ { // warm caches and pools
		if err := op(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	minReps, _ := ladderFloor(budget)
	for len(ns) < ladderReps && (len(ns) < minReps || time.Since(begin) < budget) {
		if r.fresh > 0 && len(ns) > 0 && len(ns)%r.fresh == 0 {
			// Set-up allocations do not count: close the books before
			// it and reopen them after.
			runtime.ReadMemStats(&after)
			allocs += float64(after.Mallocs - before.Mallocs)
			if op, err = r.setup(); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", r.name, err)
			}
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		if err := op(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}
		ns = append(ns, float64(time.Since(start)))
	}
	runtime.ReadMemStats(&after)
	allocs += float64(after.Mallocs - before.Mallocs)
	// The loop's own allocation is the ns slice growing: a handful of
	// mallocs over hundreds of reps, below one per op.
	return ns, allocs / float64(len(ns)), nil
}

// ladder measures every rung into m. budget bounds each rung's time.
func ladder(m metrics, budget time.Duration) error {
	cfg := benchModel()
	rng := tensor.NewRNG(7)
	mdl, err := model.NewRandom(cfg, sutSeed)
	if err != nil {
		return err
	}
	mh, err := attention.RandomMultiHead(rng, cfg.Heads, cfg.F, cfg.FH())
	if err != nil {
		return err
	}
	ids := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(cfg.VocabSize)
		}
		return out
	}
	part := rng.Normal(ladderP, cfg.F, 1)
	full := rng.Normal(ladderN, cfg.F, 1)
	xp, err := full.RowSlice(ladderP, 2*ladderP)
	if err != nil {
		return err
	}
	cacheX := rng.Normal(ladderCache, cfg.F, 1)
	w := rng.Normal(cfg.F, cfg.FFN, 0.05)
	decodeRows := rng.Normal(ladderB, cfg.F, 1)
	scores := rng.Normal(ladderP, ladderN, 1)
	gain, bias := tensor.Ones(cfg.F), tensor.Zeros(cfg.F)
	encoded := tensor.Encode(nil, part)
	order := flopcount.SelectOrder(flopcount.Shape{N: ladderN, P: ladderP, F: cfg.F, FH: cfg.FH()})

	prefilled := func(n int) (*tensor.Matrix, *model.DecodeState, error) {
		x, err := mdl.Embed.EmbedTokens(ids(n))
		if err != nil {
			return nil, nil, err
		}
		return mdl.Prefill(x)
	}

	pair, err := comm.NewMemMesh(2, netem.Unlimited)
	if err != nil {
		return err
	}
	defer pair[0].Close()
	idle := sched.New(sched.Options{Workers: sutGateWorkers})
	defer idle.Close()

	rungs := []rung{
		{name: "tensor.matmul_prefill", setup: static(func() error { _, err := tensor.MatMul(part, w); return err })},
		{name: "tensor.matmul_decode", setup: static(func() error { _, err := tensor.MatMul(decodeRows, w); return err })},
		{name: "tensor.softmax", setup: static(func() error { tensor.SoftmaxRows(scores); return nil })},
		{name: "tensor.layernorm", setup: static(func() error { _, err := tensor.LayerNorm(part, gain, bias, cfg.Eps()); return err })},
		{name: "tensor.codec_encode", setup: func() (func() error, error) {
			buf := make([]byte, 0, len(encoded))
			return func() error { buf = tensor.Encode(buf[:0], part); return nil }, nil
		}},
		{name: "tensor.codec_decode", setup: static(func() error { _, _, err := tensor.Decode(encoded); return err })},
		{name: "quantize.roundtrip", setup: static(func() error { quantize.Roundtrip(part); return nil })},
		{name: "attention.forward_partition", setup: static(func() error {
			_, err := mh.ForwardWithOptions(full, xp, attention.Options{Order: order, Causal: true, RowOffset: ladderP})
			return err
		})},
		{name: "attention.prefill_state", setup: static(func() error { _, err := mh.Prefill(cacheX); return err })},
		{name: "attention.step_batch", fresh: ladderCache, setup: func() (func() error, error) {
			states := make([]*attention.MultiHeadState, ladderB)
			for i := range states {
				if states[i], err = mh.Prefill(cacheX); err != nil {
					return nil, err
				}
			}
			return func() error { _, err := mh.StepBatch(states, decodeRows); return err }, nil
		}},
		{name: "model.embed", setup: func() (func() error, error) {
			toks := ids(ladderCache)
			return func() error { _, err := mdl.Embed.EmbedTokens(toks); return err }, nil
		}},
		{name: "model.prefill", setup: func() (func() error, error) {
			x, err := mdl.Embed.EmbedTokens(ids(ladderCache))
			return func() error { _, _, err := mdl.Prefill(x); return err }, err
		}},
		{name: "model.lm_head", setup: func() (func() error, error) {
			hidden, _, err := prefilled(ladderCache)
			return func() error { _, err := mdl.LM.NextTokenLogits(hidden); return err }, err
		}},
		{name: "model.decode_step_solo", fresh: ladderCache, setup: func() (func() error, error) {
			_, st, err := prefilled(ladderCache)
			return func() error { _, err := mdl.DecodeStep(st, 1); return err }, err
		}},
		// The batched step's set-up is eight prefills; it is not refreshed,
		// so the cache grows from 64 by one position per repetition.
		{name: "model.decode_step_batch", setup: func() (func() error, error) {
			states := make([]*model.DecodeState, ladderB)
			for i := range states {
				if _, states[i], err = prefilled(ladderCache); err != nil {
					return nil, err
				}
			}
			toks := ids(ladderB)
			return func() error { _, err := mdl.DecodeStepBatch(states, toks); return err }, nil
		}},
		{name: "comm.frame_roundtrip", setup: func() (func() error, error) {
			a, b := comm.NewFramed(pair[0]), comm.NewFramed(pair[1])
			payload := make([]byte, 16<<10)
			ctx := context.Background()
			return func() error {
				if err := a.Send(ctx, 1, payload); err != nil {
					return err
				}
				buf, err := b.Recv(ctx, 0)
				comm.ReleaseBuffer(buf)
				return err
			}, nil
		}},
		{name: "sched.do", setup: static(func() error { return idle.Do(context.Background(), noopJob) })},
	}
	allocNames := map[string]bool{"attention.step_batch": true, "model.decode_step_batch": true}
	medians := map[string]float64{}
	for _, r := range rungs {
		ns, allocs, err := timeRung(r, budget)
		if err != nil {
			return err
		}
		medians[r.name] = median(ns)
		m.set(r.name+"_ns", medians[r.name], "ns", len(ns))
		if allocNames[r.name] {
			m.set(r.name+"_allocs", allocs, "count", len(ns))
		}
	}
	// Analytic work of the prefill matmul over its measured time.
	macs := float64(ladderP * cfg.F * cfg.FFN)
	m.set("tensor.matmul_gmacs", macs/medians["tensor.matmul_prefill"], "GMAC/s", 0)

	for _, step := range []func(metrics, time.Duration) error{
		ladderAllGather, ladderSleep, ladderSchedContended, ladderServer,
	} {
		if err := step(m, budget); err != nil {
			return err
		}
	}
	return ladderCluster(m, budget, medians["model.decode_step_solo"])
}

var noopJob = sched.Job{Class: sched.Interactive, Run: func(context.Context, time.Duration) error { return nil }}

// ladderAllGather times Voltage's between-layer collective over three
// in-memory peers, unshaped and at the edge profile's line rate, and
// compares the latter with bytes ÷ bandwidth + latency.
func ladderAllGather(m metrics, budget time.Duration) error {
	cfg := benchModel()
	scheme, err := partition.Even(sutK)
	if err != nil {
		return err
	}
	ranges, err := scheme.Ranges(ladderN)
	if err != nil {
		return err
	}
	parts := make([]*tensor.Matrix, sutK)
	for r := range parts {
		parts[r] = tensor.NewRNG(int64(r+1)).Normal(ranges[r].Len(), cfg.F, 1)
	}
	for _, c := range []struct {
		name string
		net  netem.Profile
	}{{"comm.allgather_host", netem.Unlimited}, {"comm.allgather_edge", edgeProfile.Net}} {
		mesh, err := comm.NewMemMesh(sutK, c.net)
		if err != nil {
			return err
		}
		exs := make([]*comm.Exchange, sutK)
		for r := range exs {
			exs[r] = comm.NewExchange(&tensor.MatrixPool{})
		}
		ns, _, err := timeRung(rung{name: c.name, setup: func() (func() error, error) {
			return func() error {
				errs := make([]error, sutK)
				var wg sync.WaitGroup
				for r := 0; r < sutK; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						out, err := exs[r].AllGatherMatrix(context.Background(), mesh[r], parts[r], ranges, false)
						exs[r].Pool().Put(out)
						errs[r] = err
					}(r)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			}, nil
		}}, budget)
		if err != nil {
			return err
		}
		med := median(ns)
		m.set(c.name+"_ns", med, "ns", len(ns))
		var sent int64
		for _, p := range mesh {
			sent += p.Stats().BytesSent
		}
		perOp := float64(sent) / float64(len(ns)+3) // three warm-up ops also sent
		_ = mesh[0].Close()
		if c.net.BandwidthMbps > 0 {
			// Each rank serialises its partition once per peer on its
			// own link; the last byte then takes one propagation delay.
			perRank := perOp / sutK
			floor := perRank/c.net.Rate()*1e9 + float64(c.net.Latency)
			m.set("comm.allgather_over_floor_frac", med/floor-1, "frac", len(ns))
			m.set("comm.allgather_bytes", perOp, "B", 0)
		}
	}
	return nil
}

// ladderSleep measures how late this host wakes a 2 ms sleep: the pacing
// fidelity every *_edge number rests on.
func ladderSleep(m metrics, budget time.Duration) error {
	_, reps := ladderFloor(budget)
	relaxed := reps < sleepReps
	over := make(dist, 0, reps)
	for i := 0; i < reps; i++ {
		due := time.Now().Add(sleepFor)
		if err := netem.SleepUntil(context.Background(), due); err != nil {
			return err
		}
		over = append(over, float64(time.Since(due))/float64(time.Microsecond))
	}
	if err := over.pct(m, "netem.sleep_overshoot_us_p50", 0.50, "us", relaxed); err != nil {
		return err
	}
	return over.pct(m, "netem.sleep_overshoot_us_p99", 0.99, "us", relaxed)
}

// ladderSchedContended is sched.do with eight callers at once.
func ladderSchedContended(m metrics, budget time.Duration) error {
	s := sched.New(sched.Options{Workers: sutGateWorkers})
	defer s.Close()
	const callers = 8
	per := make([][]float64, callers)
	errs := make([]error, callers)
	deadline := time.Now().Add(budget)
	minReps, _ := ladderFloor(budget)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for len(per[c]) < ladderReps && (len(per[c]) < minReps || time.Now().Before(deadline)) {
				start := time.Now()
				if err := s.Do(context.Background(), noopJob); err != nil {
					errs[c] = err
					return
				}
				per[c] = append(per[c], float64(time.Since(start)))
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for c := range per {
		if errs[c] != nil {
			return errs[c]
		}
		all = append(all, per[c]...)
	}
	m.set("sched.do_contended_ns", median(all), "ns", len(all))
	return nil
}

// stubBackend answers at once: what remains is the gateway's own cost.
type stubBackend struct{ cfg model.Config }

func (b *stubBackend) Config() model.Config { return b.cfg }

func (b *stubBackend) ClassifyTokens(context.Context, cluster.Strategy, []int) (*voltage.Prediction, error) {
	return &voltage.Prediction{Logits: []float32{0.25, 0.75}, Class: 1, Run: &cluster.Result{Attempts: 1}}, nil
}

func (b *stubBackend) GenerateStream(_ context.Context, prompt []int, steps int, onToken func(int)) (*cluster.GenerateResult, error) {
	tokens := append(append([]int(nil), prompt...), make([]int, steps)...)
	for i := 0; i < steps; i++ {
		tokens[len(prompt)+i] = i
		onToken(i)
	}
	return &cluster.GenerateResult{Tokens: tokens, Attempts: 1}, nil
}

func (b *stubBackend) Health() []cluster.RankHealth { return nil }

// ladderServer times the gateway handler over the stub backend: one
// classify, and one 32-token stream reported per chunk.
func ladderServer(m metrics, budget time.Duration) error {
	const chunks = 32
	gw, err := server.New(&stubBackend{cfg: benchModel()}, server.Options{
		Sched: sched.Options{Workers: sutGateWorkers},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	h := gw.Handler()
	call := func(path string, body []byte, flushes int) func() error {
		return func() error {
			req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if err != nil {
				return err
			}
			rec := newRecorder(flushes)
			h.ServeHTTP(rec, req)
			if rec.status != http.StatusOK {
				return fmt.Errorf("stub %s: status %d", path, rec.status)
			}
			return nil
		}
	}
	classify := call("/v1/classify", []byte(`{"tokens":[1,2,3,4,5,6,7,8]}`), 0)
	ns, _, err := timeRung(rung{name: "server.classify_overhead", setup: static(classify)}, budget)
	if err != nil {
		return err
	}
	m.set("server.classify_overhead_ns", median(ns), "ns", len(ns))
	generate := call("/v1/generate", []byte(fmt.Sprintf(`{"prompt":[1,2,3,4,5,6,7,8],"steps":%d}`, chunks)), chunks+1)
	ns, _, err = timeRung(rung{name: "server.generate_chunk", setup: static(generate)}, budget)
	if err != nil {
		return err
	}
	m.set("server.generate_chunk_ns", median(ns)/chunks, "ns", len(ns))
	return nil
}

// ladderCluster times one request round of an unpaced cluster: the fixed
// cost of an inference (N=8) and of a decode step over the solo model's.
func ladderCluster(m metrics, budget time.Duration, soloStepNs float64) error {
	c, err := cluster.NewMem(benchModel(), sutK, cluster.Options{Seed: sutSeed, MaxBatch: sutMaxBatch})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	x, err := c.Model(0).Embed.EmbedTokens([]int{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		return err
	}
	ns, _, err := timeRung(rung{name: "cluster.infer_floor", setup: static(func() error {
		_, err := c.Infer(ctx, cluster.StrategyVoltage, x)
		return err
	})}, budget)
	if err != nil {
		return err
	}
	m.set("cluster.infer_floor_ns", median(ns), "ns", len(ns))

	// One sequence, 32 steps from a 48-token prompt: the cache averages
	// the 64 positions the solo step was timed at.
	const steps = 32
	prompt := make([]int, ladderCache-steps/2)
	for i := range prompt {
		prompt[i] = i + 1
	}
	var perTok []float64
	minReps, _ := ladderFloor(budget)
	begin := time.Now()
	for len(perTok) < minReps/2 || (len(perTok) < ladderReps/steps && time.Since(begin) < budget) {
		res, err := c.GenerateVoltage(ctx, prompt, steps)
		if err != nil {
			return err
		}
		perTok = append(perTok, float64(res.DecodeLatency)/steps)
	}
	round := median(perTok)
	m.set("cluster.step_round_ns", round, "ns", len(perTok)*steps)
	m.set("cluster.step_overhead_ns", round-soloStepNs, "ns", 0)
	return nil
}
