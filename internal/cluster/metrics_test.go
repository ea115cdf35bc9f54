package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/metrics"
	"voltage/internal/trace"
)

func TestMetricsObserveHealthyServing(t *testing.T) {
	c := newTiny(t, 2, Options{})
	x := embedTiny(t, c, 8)
	const reqs = 3
	var want [3]comm.Stats // per mesh rank, from the per-request stats
	for i := 0; i < reqs; i++ {
		res, err := c.Infer(context.Background(), StrategyVoltage, x)
		if err != nil {
			t.Fatal(err)
		}
		for r, s := range res.PerDevice {
			want[r] = want[r].Add(s)
		}
	}
	snap := c.Metrics()
	if got := snap.Counter(`voltage_requests_total{outcome="ok"}`); got != reqs {
		t.Errorf("requests ok = %v, want %d", got, reqs)
	}
	if got := snap.Counter(`voltage_attempts_total{outcome="ok"}`); got != reqs {
		t.Errorf("attempts ok = %v, want %d", got, reqs)
	}
	if got := snap.Counter(`voltage_requests_total{outcome="error"}`); got != 0 {
		t.Errorf("requests error = %v, want 0", got)
	}
	h, ok := snap.Histograms["voltage_request_latency_seconds"]
	if !ok || h.Count != reqs || h.Sum <= 0 {
		t.Errorf("latency histogram = %+v ok=%v, want %d observations", h, ok, reqs)
	}
	if h, ok := snap.Histograms["voltage_request_attempts"]; !ok || h.Count != reqs {
		t.Errorf("attempts histogram count = %d, want %d", h.Count, reqs)
	}
	// The traffic counters must observe exactly the per-request accounting —
	// metrics ride on the existing stat scopes, never a second count.
	var sum comm.Stats
	for r, lbl := range []string{"0", "1", "terminal"} {
		got := comm.Stats{
			BytesSent: int64(snap.Counter(fmt.Sprintf("voltage_comm_bytes_sent_total{rank=%q}", lbl))),
			BytesRecv: int64(snap.Counter(fmt.Sprintf("voltage_comm_bytes_recv_total{rank=%q}", lbl))),
			MsgsSent:  int64(snap.Counter(fmt.Sprintf("voltage_comm_msgs_sent_total{rank=%q}", lbl))),
			MsgsRecv:  int64(snap.Counter(fmt.Sprintf("voltage_comm_msgs_recv_total{rank=%q}", lbl))),
		}
		if got != want[r] {
			t.Errorf("rank %s traffic counters = %+v, want %+v", lbl, got, want[r])
		}
		sum = sum.Add(got)
	}
	// Conservation: after clean requests every byte and message one rank
	// sent, another received.
	if sum.BytesSent == 0 || sum.BytesSent != sum.BytesRecv || sum.MsgsSent != sum.MsgsRecv {
		t.Errorf("mesh-wide traffic %+v: sent and received do not balance", sum)
	}
	if got := snap.Gauge(`voltage_health_state{rank="0"}`); got != float64(Healthy) {
		t.Errorf("health gauge rank 0 = %v, want healthy", got)
	}
	if got := snap.Counter(`voltage_errors_total{type="timeout"}`); got != 0 {
		t.Errorf("timeout errors = %v on a healthy run", got)
	}
	if got := snap.Counter(`voltage_phase_seconds_total{phase="compute"}`); got <= 0 {
		t.Errorf("compute phase seconds = %v, want > 0", got)
	}
}

func httpGetBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %q)", url, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}

// TestAdminListenerServesClusterEndpoints: the cluster's registry and health
// snapshot on an admin listener mounted the way voltage-server mounts them
// (metrics.StartAdmin over MetricsRegistry and Health).
func TestAdminListenerServesClusterEndpoints(t *testing.T) {
	c := newTiny(t, 2, Options{})
	if _, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 8)); err != nil {
		t.Fatal(err)
	}
	admin, err := metrics.StartAdmin("127.0.0.1:0", c.MetricsRegistry(), func() metrics.Health {
		ranks := c.Health()
		for _, rh := range ranks {
			if rh.State != Unhealthy {
				return metrics.Health{OK: true, Detail: ranks}
			}
		}
		return metrics.Health{Detail: ranks}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	addr := admin.Addr()
	body := httpGetBody(t, "http://"+addr+"/metrics", http.StatusOK)
	for _, series := range []string{
		"# TYPE voltage_request_latency_seconds histogram",
		"voltage_request_latency_seconds_bucket",
		`voltage_requests_total{outcome="ok"} 1`,
		`voltage_comm_bytes_sent_total{rank="terminal"}`,
		`voltage_errors_total{type="timeout"} 0`,
		`voltage_health_state{rank="0"} 0`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	health := httpGetBody(t, "http://"+addr+"/healthz", http.StatusOK)
	if !strings.Contains(health, `"ok":true`) || !strings.Contains(health, `"Rank":1`) {
		t.Errorf("/healthz body %q, want ok with per-rank detail", health)
	}
	_ = admin.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("admin listener survived Close")
	}
}

// TestChaosCountersNonzero runs the stalled-worker chaos scenario and
// asserts the observability layer saw it: transport-level op timeouts, a
// failed attempt with a typed timeout cause, a retry, a degraded request,
// and the blamed rank's health transition — all nonzero after one degraded
// inference.
func TestChaosCountersNonzero(t *testing.T) {
	c := newTiny(t, 3, Options{
		OpTimeout:      150 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		MaxRetries:     2,
		WrapTransport:  wrapRank(1, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, StallRecvAfter: 1} }),
	})
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 9))
	if err != nil {
		t.Fatalf("stalled worker should degrade, not fail: %v", err)
	}
	if res.Attempts < 2 || !res.Degraded {
		t.Fatalf("attempts=%d degraded=%v, want a degraded retry", res.Attempts, res.Degraded)
	}
	snap := c.Metrics()
	for _, key := range []string{
		"voltage_op_timeouts_total",
		"voltage_retries_total",
		`voltage_attempts_total{outcome="error"}`,
		`voltage_attempts_total{outcome="ok"}`,
		`voltage_errors_total{type="timeout"}`,
		`voltage_requests_total{outcome="ok"}`,
		"voltage_degraded_requests_total",
		`voltage_health_transitions_total{state="unhealthy"}`,
	} {
		if got := snap.Counter(key); got <= 0 {
			t.Errorf("%s = %v, want > 0 after chaos", key, got)
		}
	}
	if got := snap.Gauge(`voltage_health_state{rank="1"}`); got != float64(Unhealthy) {
		t.Errorf("health gauge rank 1 = %v, want unhealthy (%d)", got, Unhealthy)
	}
}

// TestRequestTraceOnResult pins the per-request span trace: every live
// rank contributes one compute span per layer and one comm span per
// All-Gather, the terminal's boundary work appears as layer −1 spans, and
// the trace carries the request's admission id.
func TestRequestTraceOnResult(t *testing.T) {
	c := newTiny(t, 2, Options{TraceRequests: true})
	res, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("TraceRequests set but Result.Trace nil")
	}
	if res.Trace.ID() != res.ID {
		t.Fatalf("trace id %d, want request id %d", res.Trace.ID(), res.ID)
	}
	layers := len(c.Model(0).Layers)
	compute := make(map[int]int) // rank -> compute spans
	comms := make(map[int]int)
	boundary := 0
	for _, s := range res.Trace.Spans() {
		switch s.Phase {
		case trace.PhaseCompute:
			compute[s.Rank]++
		case trace.PhaseComm:
			comms[s.Rank]++
		case trace.PhaseBoundary:
			if s.Rank != c.K() || s.Layer != -1 {
				t.Errorf("boundary span %+v, want terminal rank %d layer -1", s, c.K())
			}
			boundary++
		}
	}
	for r := 0; r < c.K(); r++ {
		if compute[r] != layers {
			t.Errorf("rank %d compute spans = %d, want %d", r, compute[r], layers)
		}
		if comms[r] != layers-1 {
			t.Errorf("rank %d comm spans = %d, want %d", r, comms[r], layers-1)
		}
	}
	if boundary < 2 {
		t.Errorf("boundary spans = %d, want admit + collect", boundary)
	}
	if totals := res.Trace.PhaseTotals(); totals[trace.PhaseCompute] <= 0 {
		t.Errorf("compute total = %v, want > 0", totals[trace.PhaseCompute])
	}

	// Untraced clusters pay nothing and surface nothing.
	plain := newTiny(t, 2, Options{})
	pres, err := plain.Infer(context.Background(), StrategyVoltage, embedTiny(t, plain, 8))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Trace != nil {
		t.Fatal("Result.Trace set without TraceRequests")
	}
}
