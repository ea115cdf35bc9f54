package sched

import (
	"time"

	"voltage/internal/metrics"
)

// gatewayMetrics mirrors the scheduler's accounting into a metrics
// registry, following the cluster's instrumentation discipline: every
// instrument is resolved once at construction and every method is
// nil-receiver-safe, so a registry-less scheduler records nothing and
// costs one branch per site.
type gatewayMetrics struct {
	depthGauge  [numClasses]*metrics.Gauge
	waitHist    [numClasses]*metrics.Histogram
	admittedCnt [numClasses]*metrics.Counter
	servedOK    [numClasses]*metrics.Counter
	servedErr   [numClasses]*metrics.Counter
	shedByCause map[string]*metrics.Counter
}

// newGatewayMetrics registers the gateway families on reg (nil reg → nil
// metrics, every record site no-ops).
func newGatewayMetrics(reg *metrics.Registry) *gatewayMetrics {
	if reg == nil {
		return nil
	}
	m := &gatewayMetrics{shedByCause: make(map[string]*metrics.Counter)}
	depth := reg.GaugeVec("voltage_gateway_queue_depth",
		"Requests currently waiting in each gateway class queue.", "class")
	wait := reg.HistogramVec("voltage_gateway_queue_wait_seconds",
		"Time each dispatched request spent in its gateway queue.", "class",
		metrics.LatencyBuckets)
	admitted := reg.CounterVec("voltage_gateway_admitted_total",
		"Requests admitted to a gateway queue, by class.", "class")
	served := reg.CounterVec("voltage_gateway_served_total",
		"Requests the gateway ran to completion, by class.", "class")
	failedV := reg.CounterVec("voltage_gateway_failed_total",
		"Requests the gateway ran that resolved with an error, by class.", "class")
	shedCause := reg.CounterVec("voltage_gateway_shed_total",
		"Requests shed by the gateway, by cause (queue_full, deadline, degraded, draining, canceled).",
		"cause")
	for c := Class(0); c < numClasses; c++ {
		lbl := c.String()
		m.depthGauge[c] = depth.With(lbl)
		m.waitHist[c] = wait.With(lbl)
		m.admittedCnt[c] = admitted.With(lbl)
		m.servedOK[c] = served.With(lbl)
		m.servedErr[c] = failedV.With(lbl)
	}
	for _, cause := range []string{shedFull, shedDeadline, shedDegraded, shedDraining, shedCanceled} {
		m.shedByCause[cause] = shedCause.With(cause)
	}
	return m
}

// admitted records one admission and the resulting queue depth.
func (m *gatewayMetrics) admitted(c Class, depth int) {
	if m == nil {
		return
	}
	m.admittedCnt[c].Inc()
	m.depthGauge[c].Set(float64(depth))
}

// depth tracks a class queue's depth after a dequeue or withdrawal.
func (m *gatewayMetrics) depth(c Class, depth int) {
	if m == nil {
		return
	}
	m.depthGauge[c].Set(float64(depth))
}

// waited records one dispatched request's time in queue.
func (m *gatewayMetrics) waited(c Class, d time.Duration) {
	if m == nil {
		return
	}
	m.waitHist[c].Observe(d.Seconds())
}

// shed counts one shed decision.
func (m *gatewayMetrics) shed(cause string) {
	if m == nil {
		return
	}
	if cnt, ok := m.shedByCause[cause]; ok {
		cnt.Inc()
	}
}

// served counts one completed run by outcome.
func (m *gatewayMetrics) served(c Class, err error) {
	if m == nil {
		return
	}
	if err == nil {
		m.servedOK[c].Inc()
	} else {
		m.servedErr[c].Inc()
	}
}
