package smartthings

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"iotsid/internal/resilience"
)

// flakyBridge is an httptest server that answers the first `failures`
// requests per path-class with a 500, then recovers — the transient vendor
// outage the GET retry policy exists for.
type flakyBridge struct {
	srv      *httptest.Server
	gets     atomic.Int64
	posts    atomic.Int64
	failures int64
}

func startFlakyBridge(t *testing.T, failures int64) *flakyBridge {
	t.Helper()
	b := &flakyBridge{failures: failures}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var n int64
		if r.Method == http.MethodGet {
			n = b.gets.Add(1)
		} else {
			n = b.posts.Add(1)
		}
		if n <= b.failures {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(map[string]string{"message": "backend hiccup"})
			return
		}
		switch {
		case r.Method == http.MethodGet:
			_ = json.NewEncoder(w).Encode(map[string]string{"message": "API running."})
		default:
			_ = json.NewEncoder(w).Encode([]Entity{})
		}
	}))
	t.Cleanup(b.srv.Close)
	return b
}

// Test5xxIsTransient: a 5xx surfaces as the *APIError after one attempt
// and stays transient, so a caller's retry policy may try again.
func Test5xxIsTransient(t *testing.T) {
	b := startFlakyBridge(t, 1_000)
	c, err := NewClient(b.srv.URL, "tok")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Ping(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want wrapped 500 APIError", err)
	}
	if resilience.IsPermanent(err) {
		t.Error("5xx must stay transient")
	}
	if got := b.gets.Load(); got != 1 {
		t.Errorf("GET attempts = %d, want 1", got)
	}
}

// Test4xxIsPermanent: a 4xx is the caller's fault — retrying cannot fix it,
// so it is marked permanent for a caller's retry policy.
func Test4xxIsPermanent(t *testing.T) {
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.WriteHeader(http.StatusUnauthorized)
		_ = json.NewEncoder(w).Encode(map[string]string{"message": "bad token"})
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, "tok")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Ping(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("err = %v, want 401 APIError", err)
	}
	if !resilience.IsPermanent(err) {
		t.Error("4xx must be marked permanent")
	}
	if got := gets.Load(); got != 1 {
		t.Errorf("GET attempts = %d, want 1", got)
	}
}
