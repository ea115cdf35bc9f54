package cluster

import (
	"context"
	"errors"
	"strconv"
	"time"

	"voltage/internal/comm"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/trace"
)

// Observability wiring (see DESIGN.md "Observability"). clusterMetrics
// resolves every instrument once at construction, so the serving loops
// record with plain atomic operations — no label lookups, no locks, no
// allocation on the data path.
//
// Metrics observe the existing accounting (comm.Stats scopes, trace
// phases); they never alter it, so the paper's communication-volume
// assertions are unaffected by the metrics layer.
type clusterMetrics struct {
	reg *metrics.Registry

	// Request/attempt outcomes. An "attempt" is one pass dispatched to the
	// mesh; a "request" is the caller-visible unit (one or more attempts
	// when a failed round's requests are retried).
	requestsOK     *metrics.Counter
	requestsErr    *metrics.Counter
	attemptsOK     *metrics.Counter
	attemptsErr    *metrics.Counter
	retries        *metrics.Counter
	degraded       *metrics.Counter
	localFallbacks *metrics.Counter

	// canceled counts requests dropped because their context ended while
	// they were still queued (or waiting for a queue slot): never dispatched.
	canceled *metrics.Counter

	latency      *metrics.Histogram
	attemptsHist *metrics.Histogram

	// Continuous batching: fused decode-step widths, join/leave churn, and
	// how long each sequence waited before joining a batch.
	batchSize   *metrics.Histogram
	fusedSteps  *metrics.Counter
	batchJoins  *metrics.Counter
	batchLeaves *metrics.Counter
	batchWait   *metrics.Histogram

	// KV-cache residency per worker rank: sequences whose caches the rank
	// holds (it owns them) and the positions cached across them — the
	// memory that sharding decode by sequence divides between the ranks.
	kvSeqs      []*metrics.Gauge
	kvPositions []*metrics.Gauge

	// Straggler/skew detection: per-fused-round skew of step time per owned
	// MAC (max/mean across the round's owners) and the per-rank
	// persistent-straggler flags.
	roundSkew      *metrics.Gauge
	roundSkewEWMA  *metrics.Gauge
	stragglerRanks []*metrics.Gauge
	stragglerOn    *metrics.Counter
	stragglerOff   *metrics.Counter

	// Fault recovery: failed rounds whose survivors were re-sliced and
	// resumed (by cause), plus blast-radius accounting — how many generate
	// sequences a fault actually killed versus how many requests were parked
	// and resumed.
	recTimeout  *metrics.Counter
	recCorrupt  *metrics.Counter
	recInjected *metrics.Counter
	recOther    *metrics.Counter
	seqsFailed  *metrics.Counter
	seqsResumed *metrics.Counter

	// The serving scheme's per-rank ratios, set once at construction.
	partitionRatio []*metrics.Gauge

	queueLen *metrics.Gauge

	// Typed-error counters, both at the cause level (the error a request
	// resolves with) and at the transport level (the comm layer's fault
	// taps, which also count faults that a retry later masks).
	errTimeout  *metrics.Counter
	errCorrupt  *metrics.Counter
	errInjected *metrics.Counter
	errOther    *metrics.Counter
	tapCorrupt  *metrics.Counter
	tapTimeout  *metrics.Counter

	// Per-rank traffic (payload bytes, matching the Stats contract). Index
	// r = worker rank r; index k = the terminal.
	bytesSent []*metrics.Counter
	bytesRecv []*metrics.Counter
	msgsSent  []*metrics.Counter
	msgsRecv  []*metrics.Counter

	// Health: current state per rank plus transition counts by target
	// state.
	healthState   []*metrics.Gauge
	transitions   *metrics.CounterVec
	toHealthy     *metrics.Counter
	toProbation   *metrics.Counter
	toUnhealthy   *metrics.Counter
	phaseCompute  *metrics.Counter
	phaseComm     *metrics.Counter
	phaseBoundary *metrics.Counter
	phaseRecover  *metrics.Counter
}

// rankLabel names a mesh rank for metric labels; the terminal (rank k)
// reads "terminal" so dashboards need no knowledge of the mesh layout.
func rankLabel(rank, k int) string {
	if rank == k {
		return "terminal"
	}
	return strconv.Itoa(rank)
}

// newClusterMetrics registers the cluster's metric families on a fresh
// registry and pre-resolves every per-rank child so families render
// complete (at zero) from the first scrape.
func newClusterMetrics(k int) *clusterMetrics {
	reg := metrics.NewRegistry()
	m := &clusterMetrics{reg: reg}

	requests := reg.CounterVec("voltage_requests_total",
		"Caller-visible requests resolved, by outcome.", "outcome")
	m.requestsOK = requests.With("ok")
	m.requestsErr = requests.With("error")
	attempts := reg.CounterVec("voltage_attempts_total",
		"Passes dispatched to the mesh, by outcome (retries count each attempt; a round that died counts one error).", "outcome")
	m.attemptsOK = attempts.With("ok")
	m.attemptsErr = attempts.With("error")
	m.retries = reg.Counter("voltage_retries_total",
		"Degraded-mode re-dispatches after a retryable failure.")
	m.degraded = reg.Counter("voltage_degraded_requests_total",
		"Requests whose final attempt ran on fewer than K workers.")
	m.localFallbacks = reg.Counter("voltage_local_fallbacks_total",
		"Requests served by the terminal alone with no surviving worker.")

	m.canceled = reg.Counter("voltage_requests_canceled_total",
		"Requests whose context ended while still queued, dropped before dispatch (not counted as served requests).")

	m.latency = reg.Histogram("voltage_request_latency_seconds",
		"Terminal-observed latency of a pass (input broadcast to result assembly).",
		metrics.LatencyBuckets)
	m.attemptsHist = reg.Histogram("voltage_request_attempts",
		"Dispatches needed per completed request (1 = clean first try).",
		metrics.AttemptBuckets)

	m.batchSize = reg.Histogram("voltage_batch_size",
		"Sequences fused per batched decode step.", metrics.DepthBuckets)
	m.fusedSteps = reg.Counter("voltage_fused_steps_total",
		"Fused decode steps executed (one broadcast round per step, any width).")
	m.batchJoins = reg.Counter("voltage_batch_joins_total",
		"Sequences that joined a decode batch (prefill admitted).")
	m.batchLeaves = reg.Counter("voltage_batch_leaves_total",
		"Sequences that left a decode batch (completed, canceled, or failed).")
	m.batchWait = reg.Histogram("voltage_batch_wait_seconds",
		"Time each generate sequence waited before joining a decode batch.",
		metrics.LatencyBuckets)
	kvSeqs := reg.GaugeVec("voltage_kv_cache_sequences",
		"Live sequences whose KV caches a worker rank holds (it is their owner).", "rank")
	kvPos := reg.GaugeVec("voltage_kv_cache_positions",
		"Positions held in a worker rank's KV caches, summed over the sequences it owns.", "rank")
	m.kvSeqs = make([]*metrics.Gauge, k)
	m.kvPositions = make([]*metrics.Gauge, k)
	for r := 0; r < k; r++ {
		m.kvSeqs[r] = kvSeqs.With(rankLabel(r, k))
		m.kvPositions[r] = kvPos.With(rankLabel(r, k))
	}

	m.roundSkew = reg.Gauge("voltage_round_skew",
		"Last fused round's skew of step time per owned MAC: max/mean across the round's owner ranks (1.0 = equal devices).")
	m.roundSkewEWMA = reg.Gauge("voltage_round_skew_ewma",
		"Rolling average of per-round compute-time skew.")
	stragglers := reg.GaugeVec("voltage_straggler",
		"1 while the rank is flagged as a persistent straggler by the skew detector.", "rank")
	m.stragglerRanks = make([]*metrics.Gauge, k)
	for r := 0; r < k; r++ {
		m.stragglerRanks[r] = stragglers.With(rankLabel(r, k))
		m.stragglerRanks[r].Set(0)
	}
	stragglerFlips := reg.CounterVec("voltage_straggler_transitions_total",
		"Straggler-flag transitions, by direction.", "state")
	m.stragglerOn = stragglerFlips.With("flagged")
	m.stragglerOff = stragglerFlips.With("cleared")

	recoveries := reg.CounterVec("voltage_batch_recoveries_total",
		"Rounds that died to a retryable fault and were followed by one over the surviving workers, by cause.", "cause")
	m.recTimeout = recoveries.With("timeout")
	m.recCorrupt = recoveries.With("corrupt")
	m.recInjected = recoveries.With("injected")
	m.recOther = recoveries.With("other")
	m.seqsFailed = reg.Counter("voltage_batch_seqs_failed_total",
		"Co-batched sequences resolved with a fault error — the blast radius actually paid.")
	m.seqsResumed = reg.Counter("voltage_batch_seqs_resumed_total",
		"Requests parked across a fault and dispatched again — the blast radius avoided.")

	ratioVec := reg.GaugeVec("voltage_partition_ratio",
		"Partition ratio per worker rank of the serving scheme (fraction of sequence positions).", "rank")
	m.partitionRatio = make([]*metrics.Gauge, k)
	for r := 0; r < k; r++ {
		m.partitionRatio[r] = ratioVec.With(rankLabel(r, k))
	}

	m.queueLen = reg.Gauge("voltage_queue_length",
		"Requests currently pending: waiting to enter the mesh (classifies and generates alike).")

	causes := reg.CounterVec("voltage_errors_total",
		"Failed attempts, by typed cause.", "type")
	m.errTimeout = causes.With("timeout")
	m.errCorrupt = causes.With("corrupt")
	m.errInjected = causes.With("injected")
	m.errOther = causes.With("other")
	m.tapCorrupt = reg.Counter("voltage_frames_corrupt_total",
		"Frames that failed their integrity check on receive (transport tap; counts faults retries later mask).")
	m.tapTimeout = reg.Counter("voltage_op_timeouts_total",
		"Send/Recv operations that exceeded the per-op watchdog deadline (transport tap).")

	bytesSent := reg.CounterVec("voltage_comm_bytes_sent_total",
		"Payload bytes sent per mesh rank (framing overhead excluded).", "rank")
	bytesRecv := reg.CounterVec("voltage_comm_bytes_recv_total",
		"Payload bytes received per mesh rank.", "rank")
	msgsSent := reg.CounterVec("voltage_comm_msgs_sent_total",
		"Messages sent per mesh rank.", "rank")
	msgsRecv := reg.CounterVec("voltage_comm_msgs_recv_total",
		"Messages received per mesh rank.", "rank")
	health := reg.GaugeVec("voltage_health_state",
		"Per-rank health (0 healthy, 1 probation, 2 unhealthy).", "rank")
	m.bytesSent = make([]*metrics.Counter, k+1)
	m.bytesRecv = make([]*metrics.Counter, k+1)
	m.msgsSent = make([]*metrics.Counter, k+1)
	m.msgsRecv = make([]*metrics.Counter, k+1)
	m.healthState = make([]*metrics.Gauge, k)
	for r := 0; r <= k; r++ {
		lbl := rankLabel(r, k)
		m.bytesSent[r] = bytesSent.With(lbl)
		m.bytesRecv[r] = bytesRecv.With(lbl)
		m.msgsSent[r] = msgsSent.With(lbl)
		m.msgsRecv[r] = msgsRecv.With(lbl)
		if r < k {
			m.healthState[r] = health.With(lbl)
			m.healthState[r].Set(float64(Healthy))
		}
	}

	m.transitions = reg.CounterVec("voltage_health_transitions_total",
		"Health-state transitions, by target state.", "state")
	m.toHealthy = m.transitions.With(Healthy.String())
	m.toProbation = m.transitions.With(Probation.String())
	m.toUnhealthy = m.transitions.With(Unhealthy.String())

	phase := reg.CounterVec("voltage_phase_seconds_total",
		"Accumulated time by execution phase across all devices.", "phase")
	m.phaseCompute = phase.With(trace.PhaseCompute.String())
	m.phaseComm = phase.With(trace.PhaseComm.String())
	m.phaseBoundary = phase.With(trace.PhaseBoundary.String())
	m.phaseRecover = phase.With(trace.PhaseRecover.String())

	metrics.RegisterRuntime(reg)

	return m
}

// fault is the comm.FaultTap wired beneath the framing/watchdog wrappers.
func (m *clusterMetrics) fault(kind comm.FaultKind, _ int) {
	switch kind {
	case comm.FaultCorrupt:
		m.tapCorrupt.Inc()
	case comm.FaultTimeout:
		m.tapTimeout.Inc()
	}
}

// queueLength tracks the pending queue's depth as requests are submitted and
// the loop takes them.
func (m *clusterMetrics) queueLength(depth int) {
	m.queueLen.Set(float64(depth))
}

// canceledInQueue counts a request dropped before dispatch because its
// context ended while it waited in the admission queue.
func (m *clusterMetrics) canceledInQueue() {
	m.canceled.Inc()
}

// observeBatchStep records one fused decode step of the given width.
func (m *clusterMetrics) observeBatchStep(width int) {
	m.batchSize.Observe(float64(width))
	m.fusedSteps.Inc()
}

// kvCache mirrors one worker's cache table: how many sequences it owns and
// the positions cached across them.
func (m *clusterMetrics) kvCache(rank int, states map[uint32]*model.DecodeState) {
	positions := 0
	for _, st := range states {
		positions += st.Pos
	}
	m.kvSeqs[rank].Set(float64(len(states)))
	m.kvPositions[rank].Set(float64(positions))
}

// observeSkew mirrors the profile store's per-round skew into gauges.
func (m *clusterMetrics) observeSkew(skew, ewma float64) {
	m.roundSkew.Set(skew)
	m.roundSkewEWMA.Set(ewma)
}

// stragglerFlag mirrors a persistent-straggler flag flip.
func (m *clusterMetrics) stragglerFlag(rank int, flagged bool) {
	if rank < 0 || rank >= len(m.stragglerRanks) {
		return
	}
	if flagged {
		m.stragglerRanks[rank].Set(1)
		m.stragglerOn.Inc()
	} else {
		m.stragglerRanks[rank].Set(0)
		m.stragglerOff.Inc()
	}
}

// batchJoin counts a sequence joining the decode batch.
func (m *clusterMetrics) batchJoin() {
	m.batchJoins.Inc()
}

// batchLeave counts a sequence leaving the decode batch.
func (m *clusterMetrics) batchLeave() {
	m.batchLeaves.Inc()
}

// batchRecovery counts one failed round being recovered from,
// classified by the fault's typed cause.
func (m *clusterMetrics) batchRecovery(err error) {
	switch {
	case errors.Is(err, comm.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		m.recTimeout.Inc()
	case errors.Is(err, comm.ErrCorrupt):
		m.recCorrupt.Inc()
	case errors.Is(err, comm.ErrInjected):
		m.recInjected.Inc()
	default:
		m.recOther.Inc()
	}
}

// batchSeqFailed counts a co-batched sequence resolved with a fault error.
func (m *clusterMetrics) batchSeqFailed() {
	m.seqsFailed.Inc()
}

// batchSeqResumed counts a request parked across a fault and dispatched
// again instead of being killed with the round.
func (m *clusterMetrics) batchSeqResumed() {
	m.seqsResumed.Inc()
}

// setPartitionRatios mirrors the serving scheme into the per-rank ratio
// gauges.
func (m *clusterMetrics) setPartitionRatios(ratios []float64) {
	for r, g := range m.partitionRatio {
		g.Set(ratios[r])
	}
}

// observeBatchWait records how long a sequence waited to join a batch.
func (m *clusterMetrics) observeBatchWait(d time.Duration) {
	m.batchWait.Observe(d.Seconds())
}

// attemptOK records one pass that returned, with its latency.
func (m *clusterMetrics) attemptOK(latency time.Duration) {
	m.latency.Observe(latency.Seconds())
	m.attemptsOK.Inc()
}

// attemptFailed records one failed dispatch — a pass whose own reply was bad,
// or a round that died — under its typed cause.
func (m *clusterMetrics) attemptFailed(err error) {
	m.attemptsErr.Inc()
	m.countCause(err)
}

// traffic adds what mesh rank r moved since it was last reported.
func (m *clusterMetrics) traffic(r int, d comm.Stats) {
	m.bytesSent[r].Add(float64(d.BytesSent))
	m.bytesRecv[r].Add(float64(d.BytesRecv))
	m.msgsSent[r].Add(float64(d.MsgsSent))
	m.msgsRecv[r].Add(float64(d.MsgsRecv))
}

// observeRequest records one caller-visible resolution.
func (m *clusterMetrics) observeRequest(attempts int, degraded bool, err error) {
	if err == nil {
		m.requestsOK.Inc()
	} else {
		m.requestsErr.Inc()
	}
	if attempts < 1 {
		attempts = 1
	}
	m.attemptsHist.Observe(float64(attempts))
	if attempts > 1 {
		m.retries.Add(float64(attempts - 1))
	}
	if degraded {
		m.degraded.Inc()
	}
}

// fallbackServed counts a terminal-only resolution (no surviving worker).
func (m *clusterMetrics) fallbackServed() {
	m.localFallbacks.Inc()
}

// countCause classifies a failed attempt's error into the typed-cause counters.
func (m *clusterMetrics) countCause(err error) {
	switch {
	case errors.Is(err, comm.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		m.errTimeout.Inc()
	case errors.Is(err, comm.ErrCorrupt):
		m.errCorrupt.Inc()
	case errors.Is(err, comm.ErrInjected):
		m.errInjected.Inc()
	default:
		m.errOther.Inc()
	}
}

// healthTransition mirrors the health tracker's state machine into the
// per-rank gauge and the transition counter.
func (m *clusterMetrics) healthTransition(rank int, _, to HealthState) {
	if rank < 0 || rank >= len(m.healthState) {
		return
	}
	m.healthState[rank].Set(float64(to))
	switch to {
	case Healthy:
		m.toHealthy.Inc()
	case Probation:
		m.toProbation.Inc()
	case Unhealthy:
		m.toUnhealthy.Inc()
	}
}

// phase accumulates execution-phase time.
func (m *clusterMetrics) phase(ph trace.Phase, d time.Duration) {
	if d <= 0 {
		return
	}
	switch ph {
	case trace.PhaseCompute:
		m.phaseCompute.Add(d.Seconds())
	case trace.PhaseComm:
		m.phaseComm.Add(d.Seconds())
	case trace.PhaseBoundary:
		m.phaseBoundary.Add(d.Seconds())
	case trace.PhaseRecover:
		m.phaseRecover.Add(d.Seconds())
	}
}
