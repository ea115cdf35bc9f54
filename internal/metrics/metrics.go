// Package metrics is the observability substrate of the serving runtime: a
// dependency-free registry of atomic counters, gauges and fixed-bucket
// histograms, rendered in the Prometheus text exposition format and
// snapshotted through a plain-data API.
//
// Design constraints, in order:
//
//   - Off the data path. Recording is a handful of atomic operations; no
//     locks, allocations or formatting happen anywhere a request flows.
//     Label resolution (the only map lookup) is done once at wiring time and
//     the resolved instrument is kept, so the hot path is Add/Observe only.
//   - Dependency-free. Standard library only, so the tensor/comm/cluster
//     packages can be instrumented without pulling an exporter ecosystem
//     into a from-scratch reproduction.
//   - Exact accounting elsewhere is untouched: metrics observe comm.Stats
//     and trace phase timings, they never alter them, so the paper's
//     communication-volume assertions hold with metrics enabled.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing float64. The zero value is
// ready to use; all methods are safe for concurrent use and nil-safe so a
// disabled instrument costs one branch.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v. Negative and NaN increments are ignored
// (counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value that may go up or down. The zero
// value is ready to use; methods are concurrency- and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket.
// Buckets are fixed at registration, so Observe is two atomic adds plus one
// CAS for the sum — no allocation, no lock.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf implicit at the end
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Counter
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// snapshot returns per-bucket (non-cumulative) counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]Bucket, len(h.counts)),
		Sum:     h.Sum(),
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return s
}

// LatencyBuckets is the default request-latency bucket layout, in seconds
// (1ms–10s, roughly ×2.5 per step).
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DepthBuckets is the default queue-depth bucket layout (powers of two up
// to the admission queue's capacity).
var DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// AttemptBuckets is the default dispatch-attempt bucket layout.
var AttemptBuckets = []float64{1, 2, 3, 4, 5}

// instrument kinds.
type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one registered metric name: a scalar instrument, a single-label
// vector of instruments, or a read-at-collect-time function.
type family struct {
	name    string
	help    string
	k       kind
	label   string // label key; "" for scalar families
	buckets []float64
	fn      func() float64

	mu       sync.Mutex
	children map[string]any // label value -> instrument; scalar under ""
}

// child returns (creating if needed) the instrument for one label value.
func (f *family) child(labelValue string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labelValue]; ok {
		return c
	}
	var c any
	switch f.k {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		c = h
	default:
		panic(fmt.Sprintf("metrics: family %q cannot have children", f.name))
	}
	f.children[labelValue] = c
	return c
}

// sortedValues returns the family's label values in deterministic order.
func (f *family) sortedValues() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := make([]string, 0, len(f.children))
	for v := range f.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// Registry holds a set of metric families. Registration is cheap and
// idempotent by name; recording through the returned instruments is
// lock-free. The zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register resolves or creates a family, enforcing name/kind consistency.
// A name collision with a different kind or label is a wiring bug, reported
// by panic at registration (never on the record path).
func (r *Registry) register(name, help string, k kind, label string, buckets []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.k != k || f.label != label {
			panic(fmt.Sprintf("metrics: %q re-registered as a different instrument", name))
		}
		return f
	}
	if k == kindHistogram {
		buckets = append([]float64(nil), buckets...)
		sort.Float64s(buckets)
	}
	f := &family{
		name: name, help: help, k: k, label: label,
		buckets: buckets, fn: fn,
		children: make(map[string]any),
	}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (or finds) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, "", nil, nil).child("").(*Counter)
}

// Gauge registers (or finds) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, "", nil, nil).child("").(*Gauge)
}

// Histogram registers (or finds) a scalar fixed-bucket histogram. buckets
// are upper bounds; they are copied and sorted, and +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	return r.register(name, help, kindHistogram, "", buckets, nil).child("").(*Histogram)
}

// CounterFunc registers a counter whose value is read from fn at collect
// time (rendering and snapshots), e.g. an externally accumulated total.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounterFunc, "", nil, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at collect time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, "", nil, fn)
}

// CounterVec is a single-label family of counters.
type CounterVec struct{ f *family }

// With returns the counter for one label value, creating it on first use.
// Resolve once at wiring time and keep the result — With takes the family
// lock.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.child(labelValue).(*Counter)
}

// CounterVec registers (or finds) a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, label, nil, nil)}
}

// HistogramVec is a single-label family of fixed-bucket histograms. All
// children share the family's bucket layout.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value, creating it on first use.
// Resolve once at wiring time and keep the result — With takes the family
// lock.
func (v *HistogramVec) With(labelValue string) *Histogram {
	return v.f.child(labelValue).(*Histogram)
}

// HistogramVec registers (or finds) a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, label, buckets, nil)}
}

// GaugeVec is a single-label family of gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(labelValue string) *Gauge {
	return v.f.child(labelValue).(*Gauge)
}

// GaugeVec registers (or finds) a gauge family keyed by one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, label, nil, nil)}
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// that landed in (previous bound, UpperBound].
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// HistogramSnapshot is a point-in-time copy of one histogram. Buckets are
// per-bucket counts (not cumulative) in ascending bound order, ending with
// the +Inf bucket.
type HistogramSnapshot struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Snapshot is a point-in-time copy of every registered instrument, keyed by
// `name` for scalar instruments and `name{label="value"}` for vector
// children. Func instruments are evaluated at snapshot time.
type Snapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns a counter's snapshotted value (0 when absent).
func (s Snapshot) Counter(key string) float64 { return s.Counters[key] }

// Gauge returns a gauge's snapshotted value (0 when absent).
func (s Snapshot) Gauge(key string) float64 { return s.Gauges[key] }

// Snapshot captures every registered instrument. Nil-safe: a nil registry
// yields an empty snapshot, so callers on a metrics-disabled deployment
// need no special casing.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	for _, f := range r.families() {
		switch f.k {
		case kindCounterFunc:
			s.Counters[f.name] = f.fn()
		case kindGaugeFunc:
			s.Gauges[f.name] = f.fn()
		default:
			for _, lv := range f.sortedValues() {
				key := f.name
				if f.label != "" {
					key = fmt.Sprintf("%s{%s=%q}", f.name, f.label, lv)
				}
				switch c := f.child(lv).(type) {
				case *Counter:
					s.Counters[key] = c.Value()
				case *Gauge:
					s.Gauges[key] = c.Value()
				case *Histogram:
					s.Histograms[key] = c.snapshot()
				}
			}
		}
	}
	return s
}

// families returns the registration-ordered family list.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}
