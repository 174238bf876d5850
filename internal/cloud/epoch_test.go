package cloud

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/epoch"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// TestCloudGateEpochCollector wires the authorizer's context through an
// event-driven collector: before any push there is no context (503),
// after a push commands judge against the published view, and the
// authorizer sees state changes as soon as they are pushed — no TTL
// window.
func TestCloudGateEpochCollector(t *testing.T) {
	st, err := epoch.NewStore(epoch.Config{},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := core.NewEpochCollector(core.EpochCollectorConfig{}, st)
	if err != nil {
		t.Fatal(err)
	}
	fwd := &captureForwarder{}
	authorize := func(ctx context.Context, in instr.Instruction) (core.Decision, error) {
		snap, err := coll.Collect(ctx)
		if err != nil {
			return core.Decision{}, err
		}
		if snap.Bool(sensor.FeatSmoke) {
			return core.Decision{Sensitive: true, Reason: "smoke present"}, nil
		}
		return core.Decision{Allowed: true, Sensitive: true}, nil
	}
	srv, err := NewServer(Config{
		Users:     map[string]string{"alice": "s3cret"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   fwd.forward,
		Authorize: authorize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")

	// Nothing pushed yet: there is no context to judge against.
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-push command: %v", err)
	}

	// Push a smoke-free context: the command judges and forwards.
	clear := sensor.Snapshot{}
	clear.Set(sensor.FeatSmoke, sensor.Bool(false))
	if err := st.Push("sim", clear); err != nil {
		t.Fatal(err)
	}
	if err := c.Command("window.open", "window-1", nil); err != nil {
		t.Fatalf("post-push command: %v", err)
	}
	if fwd.count() != 1 {
		t.Fatalf("forwarded = %d, want 1", fwd.count())
	}

	// Push smoke: the very next command sees it — no cache staleness.
	smoke := sensor.Snapshot{}
	smoke.Set(sensor.FeatSmoke, sensor.Bool(true))
	if err := st.Push("sim", smoke); err != nil {
		t.Fatal(err)
	}
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("smoke-context command: %v", err)
	}
	if fwd.count() != 1 {
		t.Error("gated command forwarded")
	}
}
