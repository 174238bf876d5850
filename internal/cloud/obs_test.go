package cloud

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
)

// TestMetricsEndpointExposition is the end-to-end observability check: a
// cloud wired the way cmd/iotsidd wires it (framework + multi-source
// collector sharing one registry) serves a valid Prometheus exposition on
// GET /metrics covering every instrumented subsystem — authorization
// decisions, per-source collector provenance, breaker transitions, and
// worker-pool utilization.
func TestMetricsEndpointExposition(t *testing.T) {
	// The pool metrics register on the process-default registry, so the
	// endpoint must serve that registry to cover them — same as production.
	reg := obs.Default()

	det, fm := trainedIDS(t)
	scene, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}

	// One healthy required source, one flapping optional source guarded by
	// a breaker (threshold 1, so the first failure trips it) and a retry
	// policy — every resilience series gets traffic.
	auxCalls := 0
	aux := core.CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) {
		auxCalls++
		return sensor.Snapshot{}, errors.New("aux gateway down")
	})
	sim := core.CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) {
		return scene, nil
	})
	noSleep := func(ctx context.Context, d time.Duration) error { return nil }
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		Name: "aux", FailureThreshold: 1, OpenTimeout: time.Hour,
		OnStateChange: core.BreakerTransitionHook(reg, "aux"),
	})
	multi, err := core.NewMultiCollector(
		core.MultiConfig{Metrics: reg},
		core.Source{Name: "sim", Collector: sim, Required: true},
		core.Source{Name: "aux", Collector: aux, Breaker: breaker,
			Retry: &resilience.Policy{MaxAttempts: 2, Sleep: noSleep}},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(core.Config{Detector: det, Collector: multi, Memory: fm, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:     map[string]string{"alice": "s3cret"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   fwd.forward,
		Authorize: f.Authorize,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")
	// Two commands: the first trips aux's breaker, the second finds it open.
	for i := 0; i < 2; i++ {
		if err := c.Command("window.open", "window-1", nil); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Structural validity: every non-comment line is `name[{labels}] value`
	// with a parseable float value.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}

	// Coverage: one series from each instrumented subsystem.
	for _, series := range []string{
		`iotsid_authz_decisions_total{outcome="`,                      // authorization
		"iotsid_authz_latency_seconds_bucket",                         // latency histogram
		`iotsid_collector_source_collects_total{source="sim",state="`, // provenance
		`iotsid_collector_retry_attempts_total{source="aux"}`,         // retries
		`iotsid_breaker_transitions_total{name="aux",to="open"} 1`,    // breaker
		"iotsid_par_runs_total",                                       // worker pool
		"iotsid_par_workers_busy",                                     // pool gauge
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	if auxCalls == 0 {
		t.Fatal("aux source was never collected; the resilience series are vacuous")
	}

	// The breaker tripped on the first command; the second command was
	// short-circuited without touching aux.
	if got := breaker.State(); got != resilience.StateOpen {
		t.Fatalf("breaker state %v, want open", got)
	}
}

// TestMetricsEndpointMethodsAndAbsence: POST is rejected, and a server
// without a registry does not expose the endpoint at all.
func TestMetricsEndpointMethodsAndAbsence(t *testing.T) {
	reg := obs.NewRegistry()
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	resp, err := http.Post(srv.URL()+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d, want 405", resp.StatusCode)
	}

	bare, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bare.Close() })
	resp, err = http.Get(bare.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without a registry: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(bare.URL() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/: status %d, want 404", resp.StatusCode)
	}
}
