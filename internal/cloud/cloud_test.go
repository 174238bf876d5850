package cloud

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/instr"
)

type captureForwarder struct {
	mu   sync.Mutex
	got  []instr.Instruction
	fail bool
}

func (f *captureForwarder) forward(in instr.Instruction) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("device offline")
	}
	f.got = append(f.got, in)
	return nil
}

func (f *captureForwarder) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.got)
}

func startCloud(t *testing.T, authorize func(context.Context, instr.Instruction) (core.Decision, error)) (*Server, *captureForwarder) {
	t.Helper()
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:     map[string]string{"alice": "s3cret", "bob": "hunter2"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   fwd.forward,
		Authorize: authorize,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := srv.BindDevice("light-1", "alice"); err != nil {
		t.Fatal(err)
	}
	return srv, fwd
}

func login(t *testing.T, srv *Server, user, secret string) *Client {
	t.Helper()
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login(user, secret); err != nil {
		t.Fatalf("Login: %v", err)
	}
	return c
}

func TestLoginAndCommandFlow(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	c := login(t, srv, "alice", "s3cret")

	devices, err := c.Devices()
	if err != nil {
		t.Fatalf("Devices: %v", err)
	}
	if len(devices) != 2 || devices[0] != "light-1" || devices[1] != "window-1" {
		t.Errorf("devices = %v", devices)
	}

	if err := c.Command("window.open", "window-1", nil); err != nil {
		t.Fatalf("Command: %v", err)
	}
	if fwd.count() != 1 {
		t.Fatalf("forwarded = %d", fwd.count())
	}
	hist, err := c.History()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != 1 || hist[0].Outcome != OutcomeForwarded || hist[0].Op != "window.open" {
		t.Errorf("history = %+v", hist)
	}
}

func TestLoginFailures(t *testing.T) {
	srv, _ := startCloud(t, nil)
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad secret: %v", err)
	}
	if err := c.Login("mallory", "x"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown user: %v", err)
	}
	// Unauthenticated command.
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated command: %v", err)
	}
}

func TestCommandVerification(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	alice := login(t, srv, "alice", "s3cret")
	bob := login(t, srv, "bob", "hunter2")
	var apiErr *APIError

	// Unknown opcode rejected.
	if err := alice.Command("warp.engage", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: %v", err)
	}
	// Bob does not own alice's window.
	if err := bob.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Errorf("foreign device: %v", err)
	}
	// Unbound device rejected.
	if err := alice.Command("vacuum.start", "vacuum-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Errorf("unbound device: %v", err)
	}
	if fwd.count() != 0 {
		t.Errorf("rejected commands forwarded: %d", fwd.count())
	}
	// Rejections are in the history.
	hist, err := alice.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("alice history = %+v", hist)
	}
	for _, h := range hist {
		if h.Outcome != OutcomeRejected {
			t.Errorf("entry = %+v", h)
		}
	}
}

func TestCloudGateBlocks(t *testing.T) {
	authorize := func(_ context.Context, in instr.Instruction) (core.Decision, error) {
		if in.Op == "window.open" {
			return core.Decision{Sensitive: true, Reason: "context illegal"}, nil
		}
		return core.Decision{Allowed: true}, nil
	}
	srv, fwd := startCloud(t, authorize)
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("gated command: %v", err)
	}
	if fwd.count() != 0 {
		t.Error("gated command forwarded")
	}
	if err := c.Command("light.on", "light-1", nil); err != nil {
		t.Fatalf("allowed command: %v", err)
	}
	if fwd.count() != 1 {
		t.Error("allowed command not forwarded")
	}
}

func TestCloudGateContextUnavailable(t *testing.T) {
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Authorize: func(context.Context, instr.Instruction) (core.Decision, error) {
			return core.Decision{}, errors.New("collector down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("context-down command: %v", err)
	}
	if fwd.count() != 0 {
		t.Error("command forwarded without context")
	}
}

func TestForwarderFailureRecorded(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	fwd.fail = true
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("failed forward: %v", err)
	}
	hist, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Outcome != OutcomeFailed {
		t.Errorf("history = %+v", hist)
	}
}

func TestBindDeviceRules(t *testing.T) {
	srv, _ := startCloud(t, nil)
	if err := srv.BindDevice("x", "nobody"); err == nil {
		t.Error("want unknown-user error")
	}
	if err := srv.BindDevice("window-1", "bob"); err == nil {
		t.Error("want already-bound error")
	}
	// Re-binding to the same owner is idempotent.
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Errorf("idempotent rebind: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	reg := instr.BuiltinRegistry()
	fwd := func(instr.Instruction) error { return nil }
	cases := []Config{
		{Registry: reg, Forward: fwd},                       // no users
		{Users: map[string]string{"a": "b"}, Forward: fwd},  // no registry
		{Users: map[string]string{"a": "b"}, Registry: reg}, // no forwarder
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("://bad"); err == nil {
		t.Error("want URL error")
	}
	c, err := NewClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("a", "b"); err == nil {
		t.Error("want connection error")
	}
}

func TestHistoryIsolatedPerUser(t *testing.T) {
	srv, _ := startCloud(t, nil)
	alice := login(t, srv, "alice", "s3cret")
	bob := login(t, srv, "bob", "hunter2")
	if err := alice.Command("light.on", "light-1", nil); err != nil {
		t.Fatal(err)
	}
	bobHist, err := bob.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(bobHist) != 0 {
		t.Errorf("bob sees alice's history: %+v", bobHist)
	}
	// Server-side full history has it.
	if len(srv.History()) != 1 {
		t.Errorf("server history = %+v", srv.History())
	}
}

// TestHistoryBounded: the command history keeps only the newest
// historyCap submissions, rejected ones included, oldest first.
func TestHistoryBounded(t *testing.T) {
	srv, _ := startCloud(t, func(_ context.Context, in instr.Instruction) (core.Decision, error) {
		return core.Decision{Allowed: in.Op != "window.open", Reason: "test"}, nil
	})
	c := login(t, srv, "alice", "s3cret")
	const n = historyCap + 10
	// Even submissions are forwarded, odd ones rejected; the last (odd)
	// is the newest entry.
	for i := 0; i < n; i++ {
		op, dev := "light.on", "light-1"
		if i%2 == 1 {
			op, dev = "window.open", "window-1"
		}
		_ = c.Command(op, dev, nil)
	}
	hist := srv.History()
	if len(hist) != historyCap {
		t.Fatalf("history holds %d entries after %d commands, want %d", len(hist), n, historyCap)
	}
	newest := hist[len(hist)-1]
	if newest.Op != "window.open" || newest.Outcome != OutcomeRejected {
		t.Errorf("newest entry = %+v, want the last (rejected) window.open", newest)
	}
	if hist[0].Op != "light.on" || hist[1].Op != "window.open" {
		t.Errorf("oldest retained = %+v, %+v, want the 11th and 12th submissions", hist[0], hist[1])
	}
	wire, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != historyCap || wire[len(wire)-1].Op != newest.Op || !wire[len(wire)-1].At.Equal(newest.At) {
		t.Errorf("/v1/history = %d entries, want %d ending %+v", len(wire), historyCap, newest)
	}
}

func TestLoginLockout(t *testing.T) {
	now := time.Unix(5000, 0)
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:            map[string]string{"alice": "s3cret"},
		Registry:         instr.BuiltinRegistry(),
		Forward:          fwd.forward,
		Now:              func() time.Time { return now },
		MaxLoginFailures: 3,
		LockoutWindow:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	// Three failures trip the lockout.
	for i := 0; i < 3; i++ {
		if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	// Even the correct secret is rejected while locked.
	if err := c.Login("alice", "s3cret"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("locked login: %v", err)
	}
	// After the window the account thaws.
	now = now.Add(2 * time.Minute)
	if err := c.Login("alice", "s3cret"); err != nil {
		t.Fatalf("post-lockout login: %v", err)
	}
	// A successful login resets the failure counter.
	if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("single failure after reset: %v", err)
	}
	if err := c.Login("alice", "s3cret"); err != nil {
		t.Fatalf("login after single failure: %v", err)
	}
	// Unknown users never accumulate lockout state (no user enumeration
	// via 429s).
	for i := 0; i < 10; i++ {
		if err := c.Login("ghost", "x"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
			t.Fatalf("ghost login %d: %v", i, err)
		}
	}
}
