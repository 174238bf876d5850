package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestGoldenExposition is the byte-stability contract: a fixed registry
// state must render this exact exposition, independent of registration
// order tricks (families sort by name, series by rendered labels).
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of lexical order.
	g := r.NewGauge("test_pool_busy", "Busy workers.")
	g.Set(3)
	v := r.NewCounterVec("test_decisions_total", "Decisions by outcome.", "outcome", "sensitive")
	v.With("reject", "true").Add(2)
	v.With("allow", "false").Add(40)
	v.With("allow", "true").Inc()
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	for _, s := range []float64{0.0005, 0.002, 0.002, 0.05, 7} {
		h.Observe(s)
	}
	esc := r.NewCounterVec("test_escapes_total", "Escaping: backslash \\ and\nnewline.", "path")
	esc.With("say \"hi\"\nback\\slash").Inc()

	const want = `# HELP test_decisions_total Decisions by outcome.
# TYPE test_decisions_total counter
test_decisions_total{outcome="allow",sensitive="false"} 40
test_decisions_total{outcome="allow",sensitive="true"} 1
test_decisions_total{outcome="reject",sensitive="true"} 2
# HELP test_escapes_total Escaping: backslash \\ and\nnewline.
# TYPE test_escapes_total counter
test_escapes_total{path="say \"hi\"\nback\\slash"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 3
test_latency_seconds_bucket{le="0.1"} 4
test_latency_seconds_bucket{le="+Inf"} 5
test_latency_seconds_sum 7.0545
test_latency_seconds_count 5
# HELP test_pool_busy Busy workers.
# TYPE test_pool_busy gauge
# TYPE test_unhelped_total counter
test_unhelped_total 0
`
	r.NewCounter("test_unhelped_total", "") // no HELP line
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// The gauge line sits between its TYPE line and the next family.
	wantFull := strings.Replace(want, "# TYPE test_pool_busy gauge\n",
		"# TYPE test_pool_busy gauge\ntest_pool_busy 3\n", 1)
	if got != wantFull {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantFull)
	}
	// Render twice: byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two renders of the same state differ")
	}
}

// TestIdempotentRegistration proves the get-or-create contract: identical
// re-registration returns the same cells, so shared registries need no
// coordination.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "help")
	b := r.NewCounter("x_total", "help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	v1 := r.NewCounterVec("y_total", "h", "l")
	if v1.With("a") != v1.With("a") {
		t.Fatal("With returned a different cell for the same labels")
	}
	g1, g2 := r.NewGauge("g", ""), r.NewGauge("g", "")
	if g1 != g2 {
		t.Fatal("gauge re-registration returned a different cell")
	}
	h1 := r.NewHistogram("h", "", []float64{1, 2})
	h2 := r.NewHistogram("h", "", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("histogram re-registration returned a different cell")
	}
	gv := r.NewGaugeVec("gv", "", "k")
	if gv.With("v") != gv.With("v") {
		t.Fatal("gauge vec With returned a different cell")
	}
}

// TestMismatchedRegistrationPanics: same name, different schema is a
// programmer error.
func TestMismatchedRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type", func(r *Registry) { r.NewCounter("m", "h"); r.NewGauge("m", "h") }},
		{"help", func(r *Registry) { r.NewCounter("m", "h1"); r.NewCounter("m", "h2") }},
		{"labels", func(r *Registry) {
			r.NewCounterVec("m", "h", "a")
			r.NewCounterVec("m", "h", "b")
		}},
		{"buckets", func(r *Registry) {
			r.NewHistogram("m", "h", []float64{1})
			r.NewHistogram("m", "h", []float64{2})
		}},
		{"arity", func(r *Registry) { r.NewCounterVec("m", "h", "a").With("x", "y") }},
		{"bad name", func(r *Registry) { r.NewCounter("9bad", "h") }},
		{"bad label", func(r *Registry) { r.NewCounterVec("m", "h", "bad-label") }},
		{"empty name", func(r *Registry) { r.NewCounter("", "h") }},
		{"no labels", func(r *Registry) { r.NewCounterVec("m", "h") }},
		{"no gauge labels", func(r *Registry) { r.NewGaugeVec("m", "h") }},
		{"no bounds", func(r *Registry) { r.NewHistogram("m", "h", nil) }},
		{"descending bounds", func(r *Registry) { r.NewHistogram("m", "h", []float64{2, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestNilSafety: every increment/read method must be a no-op on a nil
// receiver — that is the entire wiring contract for optional
// instrumentation.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram state")
	}
	if b, inf := h.BucketCounts(); b != nil || inf != 0 {
		t.Fatal("nil histogram buckets")
	}
}

// TestConcurrentHammer drives counters, gauges and a histogram from 8
// goroutines; under -race this is the data-race gate, and the final state
// must be exact — atomics lose nothing.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "")
	v := r.NewCounterVec("hammer_labeled_total", "", "worker")
	g := r.NewGauge("hammer_gauge", "")
	h := r.NewHistogram("hammer_hist", "", []float64{10, 100, 1000})

	const (
		workers = 8
		perW    = 5000
	)
	cells := make([]*Counter, workers)
	for w := 0; w < workers; w++ {
		cells[w] = v.With(string(rune('a' + w)))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				cells[w].Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 2000))
				if i%64 == 0 {
					// Concurrent scrapes must never tear.
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perW {
		t.Fatalf("counter %d, want %d", got, workers*perW)
	}
	for w := 0; w < workers; w++ {
		if got := cells[w].Value(); got != perW {
			t.Fatalf("cell %d: %d, want %d", w, got, perW)
		}
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %d, want 0", g.Value())
	}
	buckets, inf := h.BucketCounts()
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total+inf != workers*perW {
		t.Fatalf("bucket total %d, want %d", total+inf, workers*perW)
	}
	// Sum of i%2000 over perW values, times workers — float addition of
	// integers this small is exact in any order.
	var per float64
	for i := 0; i < perW; i++ {
		per += float64(i % 2000)
	}
	if got := h.Sum(); got != per*workers {
		t.Fatalf("histogram sum %v, want %v", got, per*workers)
	}
}

// TestDefaultRegistryIsSingleton: Default always hands back the same
// registry, so package-level instrumentation and servers agree.
func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned different registries")
	}
}

// TestHistogramBoundsCopied: the caller's bounds slice is not aliased.
func TestHistogramBoundsCopied(t *testing.T) {
	bounds := []float64{1, 2, 3}
	r := NewRegistry()
	h := r.NewHistogram("copied", "", bounds)
	bounds[0] = 99
	h.Observe(1.5)
	counts, _ := h.BucketCounts()
	if counts[1] != 1 {
		t.Fatalf("observation landed in %v; bounds were aliased", counts)
	}
}

// TestAllocFreeIncrements is the in-process allocation gate for the hot
// increment paths — the reason the registry exists at all.
func TestAllocFreeIncrements(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRegistry()
	c := r.NewCounter("alloc_total", "")
	g := r.NewGauge("alloc_gauge", "")
	h := r.NewHistogram("alloc_hist", "", LatencyBuckets)
	if a := testing.AllocsPerRun(500, func() { c.Inc(); c.Add(3) }); a != 0 {
		t.Errorf("Counter.Inc/Add allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() { g.Set(7); g.Add(-1) }); a != 0 {
		t.Errorf("Gauge.Set/Add allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() { h.Observe(0.0004) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %.1f objects/op, want 0", a)
	}
}
