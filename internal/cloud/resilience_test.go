package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/instr"
	"iotsid/internal/resilience"
)

// rawLogin logs in over plain HTTP and returns the session token, for
// tests that need to inspect raw responses and headers.
func rawLogin(t *testing.T, base, user, secret string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": user, "secret": secret})
	resp, err := http.Post(base+"/v1/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status = %d", resp.StatusCode)
	}
	var out loginResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Session
}

// rawCommand posts a command with the session and returns the raw response.
func rawCommand(t *testing.T, base, session, op, device string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"op": op, "device_id": device})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/command", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Session "+session)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHealthzReflectsRegistry: /healthz is 200 "ok" while every required
// source serves, 503 "degraded" once one goes missing, and lists the
// per-source states either way.
func TestHealthzReflectsRegistry(t *testing.T) {
	health := resilience.NewRegistry()
	health.Register("miio", true)
	health.Register("st", false)
	at := time.Unix(9000, 0)
	health.Report("miio", "fresh", "closed", at, nil)
	health.Report("st", "missing", "open", at, fmt.Errorf("down"))

	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Health:   health,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, healthzBody) {
		t.Helper()
		resp, err := http.Get(srv.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body healthzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Required source fresh, optional missing: still ok.
	status, body := get()
	if status != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthy = %d %q", status, body.Status)
	}
	if len(body.Sources) != 2 || body.Sources[0].Name != "miio" || body.Sources[1].State != "missing" {
		t.Fatalf("sources = %+v", body.Sources)
	}

	// Required source missing: degraded.
	health.Report("miio", "missing", "open", at, fmt.Errorf("udp timeout"))
	status, body = get()
	if status != http.StatusServiceUnavailable || body.Status != "degraded" {
		t.Fatalf("degraded = %d %q", status, body.Status)
	}

	// Bounded staleness on a required source is still serving: ok.
	health.Report("miio", "stale", "open", at, fmt.Errorf("udp timeout"))
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("stale required source = %d, want 200", status)
	}

	// The endpoint is GET-only and unauthenticated.
	resp, err := http.Post(srv.URL()+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d", resp.StatusCode)
	}
}

// TestHealthzWithoutRegistry: a server with no registry stays plain-ok.
func TestHealthzWithoutRegistry(t *testing.T) {
	srv, _ := startCloud(t, nil)
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// TestCommandRetryAfterWhenBreakerOpen: a breaker-open context failure is a
// 503 carrying Retry-After with the breaker's remaining wait — clients know
// exactly when to come back.
func TestCommandRetryAfterWhenBreakerOpen(t *testing.T) {
	fwd := &captureForwarder{}
	open := &resilience.OpenError{Name: "miio", RetryAfter: 17 * time.Second}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Authorize: func(context.Context, instr.Instruction) (core.Decision, error) {
			// What Framework.Authorize returns while the breaker guarding
			// the only source is open.
			return core.Decision{}, fmt.Errorf("core: collect context: core: every source failed: %w", open)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	session := rawLogin(t, srv.URL(), "alice", "s3cret")
	resp := rawCommand(t, srv.URL(), session, "window.open", "window-1")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(17) {
		t.Errorf("Retry-After = %q, want 17", got)
	}
	if fwd.count() != 0 {
		t.Error("command forwarded without context")
	}

	// A sub-second RetryAfter still advertises at least one second.
	open.RetryAfter = 200 * time.Millisecond
	resp = rawCommand(t, srv.URL(), session, "window.open", "window-1")
	defer resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want floor of 1", got)
	}
}

// TestCommandContextTimeout: a hung collector is cut off by ContextTimeout
// and surfaces as a 503 — the handler never wedges.
func TestCommandContextTimeout(t *testing.T) {
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Authorize: func(ctx context.Context, _ instr.Instruction) (core.Decision, error) {
			<-ctx.Done() // the hung gateway: only the deadline releases it
			return core.Decision{}, ctx.Err()
		},
		ContextTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	session := rawLogin(t, srv.URL(), "alice", "s3cret")
	start := time.Now()
	resp := rawCommand(t, srv.URL(), session, "window.open", "window-1")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("handler took %v despite a 50ms collection timeout", elapsed)
	}
	if fwd.count() != 0 {
		t.Error("command forwarded without context")
	}
}
