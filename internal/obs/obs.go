// Package obs is the dependency-free metrics layer of the deployment: a
// registry of monotonic counters, gauges and fixed-bucket histograms,
// optionally fanned out into labeled families, with a hand-rolled
// Prometheus text exposition (encode.go) and an HTTP handler (handler.go).
//
// The design contract is the same one the PR-1 inference fast path lives
// by: registration is rare and takes a lock; *increments are lock-free and
// allocation-free*. Every series a hot path touches is pre-registered at
// construction time and held as a direct pointer — there are no map
// lookups, label hashing or interface boxing between Framework.Authorize
// and the atomic add that counts it. All increment methods are nil-receiver
// safe, so uninstrumented components pay exactly one branch.
//
// Determinism: metrics never feed back into decisions, training or merged
// snapshots, so the serial-vs-parallel golden-equality suites are
// unaffected; the text encoding itself is byte-stable (families sorted by
// name, series by label value) and histogram tests inject a fixed clock at
// the call site, keeping the exposition reproducible too.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing series. The zero value is usable
// but unregistered; nil receivers are no-ops, so components can carry
// optional counters without guarding every increment site.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//iot:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Counters are monotonic; negative deltas are a programmer
// error and are ignored.
//
//iot:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value (queue depths, busy workers,
// breaker states). Nil receivers are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
//
//iot:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
//
//iot:hotpath
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds in ascending order (Prometheus "le" semantics); an implicit +Inf
// bucket catches the tail. Observe is lock-free: one atomic add for the
// bucket and a CAS loop folding the observation into the float sum. Nil
// receivers are no-ops.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // one per bound; +Inf tracked by inf
	inf     atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram validates and builds a histogram over the given bounds.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly ascending (bound %d: %v after %v)",
				i, bounds[i], bounds[i-1])
		}
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, buckets: make([]atomic.Uint64, len(own))}, nil
}

// Observe records one sample.
//
//iot:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the per-bound counts (not cumulative) plus the +Inf
// overflow, for tests and dumps.
func (h *Histogram) BucketCounts() ([]uint64, uint64) {
	if h == nil {
		return nil, 0
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out, h.inf.Load()
}

// LatencyBuckets is the shared bucket layout for request latencies, in
// seconds: 1µs to 2.5s in a 1-2.5-5 progression — wide enough to straddle
// both the ~100ns compiled-tree walk rolled up into the first bucket and a
// network collector's worst case.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5,
}

// metricType discriminates families.
type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// series is one (family, label-values) cell.
type series struct {
	labels string // pre-rendered `k="v",k2="v2"`, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	bounds  []float64 // histogram families
	series  map[string]*series
	ordered []*series // registration order; encode sorts a copy
}

// Registry is a set of metric families. Registration methods are safe for
// concurrent use and idempotent: re-registering an identical family (and
// identical label values) returns the existing series, so package-level
// instrumentation and tests can share the default registry without
// coordination. A mismatched re-registration (same name, different type,
// help, labels or buckets) is a programmer error and panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry — the one cmd servers expose at
// /metrics and package-level instrumentation (internal/par) registers into.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// family fetches or creates a family, enforcing schema consistency.
// Callers hold r.mu.
func (r *Registry) familyLocked(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if err := CheckName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := CheckName(l); err != nil {
			panic(fmt.Errorf("obs: family %s: bad label: %w", name, err))
		}
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labels: append([]string(nil), labels...),
			series: make(map[string]*series),
		}
		if typ == typeHistogram {
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || f.help != help || !equalStrings(f.labels, labels) ||
		(typ == typeHistogram && !equalFloats(f.bounds, bounds)) {
		panic(fmt.Errorf("obs: family %s re-registered with a different schema", name))
	}
	return f
}

// seriesLocked fetches or creates the cell for one label-value vector.
func (f *family) seriesLocked(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Errorf("obs: family %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := renderLabels(f.labels, values)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		h, err := newHistogram(f.bounds)
		if err != nil {
			panic(err)
		}
		s.h = h
	}
	f.series[key] = s
	f.ordered = append(f.ordered, s)
	return s
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, typeCounter, nil, nil).seriesLocked(nil).c
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, typeGauge, nil, nil).seriesLocked(nil).g
}

// NewHistogram registers (or fetches) an unlabeled fixed-bucket histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if _, err := newHistogram(bounds); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, typeHistogram, nil, bounds).seriesLocked(nil).h
}

// CounterVec is a labeled counter family. With resolves one label-value
// vector to its counter — a registration-time operation; hot paths hold the
// returned pointer, never the vec.
type CounterVec struct {
	r *Registry
	f *family
}

// NewCounterVec registers (or fetches) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("obs: counter vec %s needs at least one label", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, f: r.familyLocked(name, help, typeCounter, labels, nil)}
}

// With returns the counter for one label-value vector, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesLocked(values).c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	r *Registry
	f *family
}

// NewGaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("obs: gauge vec %s needs at least one label", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &GaugeVec{r: r, f: r.familyLocked(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for one label-value vector, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesLocked(values).g
}

// snapshotFamilies copies the family list for encoding, sorted by name,
// each with its series sorted by rendered labels — the byte-stability
// contract of the golden test.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		cp := &family{name: f.name, help: f.help, typ: f.typ, bounds: f.bounds}
		cp.ordered = append([]*series(nil), f.ordered...)
		sort.Slice(cp.ordered, func(i, j int) bool { return cp.ordered[i].labels < cp.ordered[j].labels })
		out = append(out, cp)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
