package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/costmodel"
)

// Shares of a driver run's --seconds that the per-layer passes take. The
// ladder takes a fixed few seconds on top.
const (
	tracedShare = 0.4
	k1Share     = 0.3
	layerWarm   = 1500 * time.Millisecond
	// ladderBudget bounds one rung of a driver run; the suite gives each
	// rung four times as long.
	ladderBudget = 150 * time.Millisecond
)

// runLayers produces one workload's per-layer metrics: the layer ladder,
// a traced window of the workload, and the same workload on one device.
func runLayers(w *workload, cfg runConfig) (*result, error) {
	m := metrics{}
	if err := ladder(m, ladderBudget); err != nil {
		return nil, err
	}
	tcfg := cfg
	tcfg.Warm, tcfg.Dur = min(cfg.Warm, layerWarm), time.Duration(float64(cfg.Dur)*tracedShare)
	tw, err := tracedWindow(w, tcfg, m)
	if err != nil {
		return nil, err
	}
	kcfg := cfg
	kcfg.Warm, kcfg.Dur = min(cfg.Warm, layerWarm), time.Duration(float64(cfg.Dur)*k1Share)
	if err := k1Pass(w, kcfg, m); err != nil {
		return nil, err
	}
	return &result{
		Workload: w.Name, Seed: cfg.Seed, Metrics: m,
		Correct: tw.Failed == 0, Attempted: tw.Stats.Tally.Attempted, Failed: tw.Failed, Problem: tw.Problem,
	}, nil
}

// tracedWindow runs the workload's operating point with spans recorded at
// the public seams and derives the per-layer metrics of the run into m.
// It returns the window so that the suite can compare it with the
// untraced one.
func tracedWindow(w *workload, cfg runConfig, m metrics) (*measured, error) {
	tr := newTracer(sutK + 1)
	s, pl, _, err := timedSetup(w, cfg.Seed, sutK, tr, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	run := runSegment(s, w, pl, operatingSegment(w, cfg), tr, true)
	ws := analyze(run, w)
	if ws.Tally.Attempted == 0 || ws.Done == 0 || ws.Outputs == 0 {
		return nil, invalidf("%s: traced window served nothing", w.Name)
	}
	out := &measured{Run: run, Stats: ws}
	out.Failed, out.Problem = verify(s, run, ws, cfg.Seed)
	if err := layerMetrics(m, w, run, ws, tr, cfg.Relaxed); err != nil {
		return nil, err
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.dump(filepath.Join(cfg.OutDir, "spans-"+w.Name+".json")); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	return out, nil
}

// layerMetrics turns one traced window into per-layer numbers. Phase
// times the engine reports about itself (queue, batch wait, prefill,
// decode) are read from the responses, at the same boundary the spans are
// recorded at; counters are differenced across the window.
func layerMetrics(m metrics, w *workload, run *segmentRun, ws *windowStats, tr *tracer, relaxed bool) error {
	type reqSpans struct{ request, handler, backend spanRec }
	byReq := make(map[uint64]*reqSpans, len(run.Samples))
	tr.mu.Lock()
	for _, sp := range tr.spans {
		rs := byReq[sp.Req]
		if rs == nil {
			rs = &reqSpans{}
			byReq[sp.Req] = rs
		}
		switch sp.Name {
		case "request":
			rs.request = sp
		case "server.handler":
			rs.handler = sp
		case "backend.call":
			rs.backend = sp
		}
	}
	tr.mu.Unlock()

	var (
		self, queue, prefill, decodeRate, batchWait, decodePerTok dist
		sum                                                       struct{ request, self, queue, batchWait, prefill, decode float64 }
	)
	begin, end := run.Begin.At, run.End.At
	for i := range run.Samples {
		sm, o := &run.Samples[i], &ws.Outcomes[i]
		if !o.OK || sm.Start.Before(begin) || !sm.Start.Before(end) {
			continue
		}
		rs := byReq[sm.SpanID]
		if rs == nil || rs.backend.ID == 0 {
			return fmt.Errorf("trace: request %d has no backend.call span", sm.SpanID)
		}
		// The handler's children are the backend call and the queue
		// wait, which the scheduler reports and no span of ours covers.
		selfMS := ms(selfTime(rs.handler, []spanRec{rs.backend})) - o.QueueMS
		reqMS := ms(rs.request.End.Sub(rs.request.Start))
		self, queue, prefill = append(self, selfMS), append(queue, o.QueueMS), append(prefill, o.PrefillMS)
		sum.request += reqMS
		sum.self += selfMS
		sum.queue += o.QueueMS
		sum.batchWait += o.BatchWaitMS
		sum.prefill += o.PrefillMS
		sum.decode += o.DecodeMS
		if sm.Req.Kind == kindGenerate && o.DecodeMS > 0 {
			perTok := o.DecodeMS / float64(sm.Req.Steps)
			decodePerTok, batchWait = append(decodePerTok, perTok), append(batchWait, o.BatchWaitMS)
			decodeRate = append(decodeRate, 1000/perTok)
		}
	}
	for _, q := range []struct {
		d    dist
		name string
	}{{self, "server.self_ms_p50"}, {queue, "sched.queue_wait_ms_p50"}, {prefill, "cluster.prefill_ms_p50"}} {
		if err := q.d.pct(m, q.name, 0.5, "ms", relaxed); err != nil {
			return err
		}
	}
	// Generate-only quantities: zero on a workload with no streams, and
	// expressed as a rate or a share so that zero is a measurement.
	m.set("cluster.decode_tok_s_p50", 0, "tok/s", 0)
	if len(decodeRate) > 0 {
		if err := decodeRate.pct(m, "cluster.decode_tok_s_p50", 0.5, "tok/s", relaxed); err != nil {
			return err
		}
		// The same in the units the engine reports, for reading; not in
		// the driver's list because a classify workload has none.
		_ = decodePerTok.pct(m, "cluster.decode_ms_per_tok_p50", 0.5, "ms", relaxed)
		_ = batchWait.pct(m, "cluster.batch_wait_ms_p50", 0.5, "ms", relaxed)
	}
	if eligible(len(queue), 0.9) {
		_ = queue.pct(m, "sched.queue_wait_ms_p90", 0.9, "ms", false)
	}

	// The time budget: where the window's request time went, as shares
	// that sum to one with the residual.
	explained := sum.self + sum.queue + sum.batchWait + sum.prefill + sum.decode
	n := len(self)
	m.set("server.self_frac", sum.self/sum.request, "frac", n)
	m.set("sched.queue_frac", sum.queue/sum.request, "frac", n)
	m.set("cluster.batch_wait_frac", sum.batchWait/sum.request, "frac", n)
	m.set("cluster.prefill_frac", sum.prefill/sum.request, "frac", n)
	m.set("cluster.decode_frac", sum.decode/sum.request, "frac", n)
	m.set("trace.residual_frac", (sum.request-explained)/sum.request, "frac", n)
	m.set("sched.shed_frac", float64(ws.Tally.Shed)/float64(ws.Tally.Attempted), "frac", ws.Tally.Attempted)

	// A stall is a gap more than twice the median gap: a co-batched
	// sequence's prefill, or a fence taken by a classify.
	stalls := 0
	if itl := ws.ITL.sorted(); len(itl) > 0 {
		limit := 2 * percentile(itl, 0.5)
		stalls = len(itl) - sort.SearchFloat64s(itl, limit)
		m.set("cluster.itl_stall_frac", float64(stalls)/float64(len(itl)), "frac", len(itl))
	} else {
		m.set("cluster.itl_stall_frac", 0, "frac", 0)
	}

	delta := func(key string) float64 { return run.WinEnd[key] - run.WinBegin[key] }
	fused := delta("voltage_fused_steps_total")
	m.set("cluster.fused_steps", fused, "count", 0)
	width := 0.0
	if c := delta("voltage_batch_size_count"); c > 0 {
		width = delta("voltage_batch_size_sum") / c
	}
	m.set("cluster.fused_width_mean", width, "count", int(fused))

	// Transport totals per rank over the window, per second of window.
	var workerSend, workerRecv, maxRecv, bytes, msgs float64
	for r, io := range tr.ranks {
		recv := time.Duration(io.recvNs.Load()).Seconds() / ws.Seconds
		bytes += float64(io.sendBy.Load())
		msgs += float64(io.sendMsgs.Load())
		if r == sutK {
			m.set("comm.terminal_recv_wait_s", recv, "s/s", 0)
			continue
		}
		workerSend += time.Duration(io.sendNs.Load()).Seconds() / ws.Seconds / sutK
		workerRecv += recv / sutK
		maxRecv = max(maxRecv, recv)
	}
	m.set("comm.worker_send_s", workerSend, "s/s", 0)
	m.set("comm.worker_recv_wait_s", workerRecv, "s/s", 0)
	skew := 0.0
	if workerRecv > 0 {
		skew = maxRecv / workerRecv
	}
	m.set("comm.worker_recv_wait_skew", skew, "ratio", 0)
	m.set("comm.bytes_per_req", bytes/float64(ws.Done), "B", ws.Done)
	m.set("comm.msgs_per_req", msgs/float64(ws.Done), "count", ws.Done)

	// Host cost that pacing hides, per thousand outputs (tokens streamed
	// plus classifications answered).
	out := float64(ws.Outputs)
	m.set("runtime.cpu_s_per_ktok", (run.End.CPU-run.Begin.CPU).Seconds()/out*1000, "s", ws.Outputs)
	m.set("runtime.allocs_per_tok", float64(run.End.Mem.Mallocs-run.Begin.Mem.Mallocs)/out, "count", ws.Outputs)
	m.set("runtime.alloc_kb_per_tok", float64(run.End.Mem.TotalAlloc-run.Begin.Mem.TotalAlloc)/1024/out, "KB", ws.Outputs)
	m.set("runtime.gc_pause_ms", float64(run.End.Mem.PauseTotalNs-run.Begin.Mem.PauseTotalNs)/1e6, "ms", int(run.End.Mem.NumGC-run.Begin.Mem.NumGC))

	// Prefill over the analytic floor: compute at the paced rate plus
	// bytes ÷ bandwidth at full line rate, at the mean prompt length.
	over := 0.0
	if w.Profile.DeviceFlops > 0 {
		floor, err := prefillFloorMS(w, run, ws)
		if err != nil {
			return err
		}
		over = m["cluster.prefill_ms_p50"].Value/floor - 1
	}
	m.set("cluster.prefill_over_floor_frac", over, "frac", 0)
	return nil
}

// prefillFloorMS is the cost model's Voltage latency for the window's mean
// prompt length on w's profile with ideal links.
func prefillFloorMS(w *workload, run *segmentRun, ws *windowStats) (float64, error) {
	total, n := 0, 0
	for i := range run.Samples {
		if ws.Outcomes[i].OK {
			total += len(run.Samples[i].Req.Prompt)
			n++
		}
	}
	sys := costmodel.System{
		Model: benchModel(), N: total / n, K: sutK, Net: w.Profile.Net,
		Device:         costmodel.DeviceProfile{FlopsPerSec: w.Profile.DeviceFlops},
		CommEfficiency: 1,
	}
	b, err := sys.Predict(cluster.StrategyVoltage)
	if err != nil {
		return 0, fmt.Errorf("cost model: %w", err)
	}
	return ms(b.Total()), nil
}

// k1Pass runs the workload's traffic on a single device: the denominator
// of the paper's speed-up.
func k1Pass(w *workload, cfg runConfig, m metrics) error {
	s, pl, _, err := timedSetup(w, cfg.Seed, 1, nil, 1)
	if err != nil {
		return err
	}
	defer s.close()
	ws := analyze(runSegment(s, w, pl, operatingSegment(w, cfg), nil, false), w)
	if ws.Outputs == 0 {
		return invalidf("%s: K=1 pass served nothing", w.Name)
	}
	m.set("cluster.k1_goodput_tok_s", float64(ws.Outputs)/ws.Seconds, "tok/s", ws.Outputs)
	return ws.TTFT.pct(m, "cluster.k1_ttft_ms_p50", 0.5, "ms", cfg.Relaxed)
}
