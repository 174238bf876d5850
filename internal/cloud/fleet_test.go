package cloud

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// fleetTrainedMemory caches one trained memory for the fleet tests.
var fleetTrainedMemory *core.FeatureMemory

func fleetMemory(t testing.TB) *core.FeatureMemory {
	t.Helper()
	if fleetTrainedMemory != nil {
		return fleetTrainedMemory
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fleetTrainedMemory = fm
	return fm
}

func fleetForCloudTest(t testing.TB, homes int) *fleet.Fleet {
	t.Helper()
	reg, err := fleet.NewModelRegistry(fleetMemory(t))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{Detector: det, Models: reg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < homes; i++ {
		if _, err := f.AddHome(fleet.HomeConfig{ID: fmt.Sprintf("home-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func startFleetCloud(t testing.TB, homes int) (*Server, *fleet.Fleet) {
	t.Helper()
	fl := fleetForCloudTest(t, homes)
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"gateway": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Fleet:    fl,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for i := 0; i < homes; i++ {
		id := fmt.Sprintf("home-%02d", i)
		if err := srv.BindHome(id, "gateway"); err != nil {
			t.Fatalf("BindHome(%q): %v", id, err)
		}
	}
	return srv, fl
}

func TestFleetEndpointsRequireSession(t *testing.T) {
	srv, _ := startFleetCloud(t, 1)
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FleetAuthorize([]FleetBatchItem{FleetItem("home-00", "window.open", "w", nil)}); err == nil {
		t.Fatal("unauthenticated FleetAuthorize succeeded")
	}
	if _, _, err := c.FleetPushContext(map[string]sensor.Snapshot{"home-00": {}}); err == nil {
		t.Fatal("unauthenticated FleetPushContext succeeded")
	}
	if _, err := c.FleetStats(); err == nil {
		t.Fatal("unauthenticated FleetStats succeeded")
	}
}

func TestFleetAuthorizeEndpoint(t *testing.T) {
	srv, _ := startFleetCloud(t, 4)
	c := login(t, srv, "gateway", "s3cret")
	// "ghost" is bound to the account but never registered with the fleet,
	// so it exercises the fleet-level unknown-home error; "intruders-home"
	// is neither bound nor registered and must be rejected at the binding
	// gate before the fleet ever sees it.
	if err := srv.BindHome("ghost", "gateway"); err != nil {
		t.Fatal(err)
	}

	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	attack, err := dataset.AttackScene(dataset.ModelWindow, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}

	results, err := c.FleetAuthorize([]FleetBatchItem{
		FleetItem("home-00", "window.open", "win-1", &legal),
		FleetItem("home-01", "window.open", "win-1", &attack),
		FleetItem("home-02", "light.get_state", "lamp-1", nil),
		FleetItem("ghost", "window.open", "win-1", &legal),
		FleetItem("home-03", "no.such_op", "x", nil),
		FleetItem("intruders-home", "window.open", "win-1", &legal),
	})
	if err != nil {
		t.Fatalf("FleetAuthorize: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	if !results[0].Allowed || !results[0].Sensitive || results[0].Model != "window" {
		t.Fatalf("legal scene: %+v", results[0])
	}
	if results[1].Allowed || results[1].Error != "" {
		t.Fatalf("attack scene: %+v", results[1])
	}
	if !results[2].Allowed || results[2].Sensitive {
		t.Fatalf("status op: %+v", results[2])
	}
	if results[3].Error == "" || !strings.Contains(results[3].Error, "unknown home") {
		t.Fatalf("ghost home: %+v", results[3])
	}
	if results[4].Error == "" || !strings.Contains(results[4].Error, "unknown opcode") {
		t.Fatalf("bad opcode: %+v", results[4])
	}
	if results[5].Error != errHomeNotBound || results[5].Allowed {
		t.Fatalf("unbound home: %+v, want %q", results[5], errHomeNotBound)
	}
}

func TestFleetContextAndStatsEndpoints(t *testing.T) {
	srv, fl := startFleetCloud(t, 3)
	c := login(t, srv, "gateway", "s3cret")

	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected, err := c.FleetPushContext(map[string]sensor.Snapshot{
		"home-00": legal,
		"home-01": legal,
	})
	if err != nil || accepted != 2 || len(rejected) != 0 {
		t.Fatalf("FleetPushContext = %d, %v, %v; want 2 accepted", accepted, rejected, err)
	}
	// A push batch with a bad home still lands the valid pushes and
	// reports the rejection structurally — the gateway learns which home
	// (and which index) failed without parsing message text.
	if err := srv.BindHome("ghost", "gateway"); err != nil {
		t.Fatal(err)
	}
	accepted, rejected, err = c.FleetPushContext(map[string]sensor.Snapshot{
		"home-02": legal,
		"ghost":   legal,
	})
	if err != nil || accepted != 1 || len(rejected) != 1 {
		t.Fatalf("mixed push batch = %d, %v, %v; want 1 accepted + 1 rejection", accepted, rejected, err)
	}
	if rejected[0].Home != "ghost" || !strings.Contains(rejected[0].Error, "unknown home") {
		t.Fatalf("rejection = %+v, want ghost/unknown-home", rejected[0])
	}
	if rejected[0].Index < 0 || rejected[0].Index > 1 {
		t.Fatalf("rejection index = %d, want a valid push index", rejected[0].Index)
	}

	// The pushed context now judges a sensitive op without inline context.
	results, err := c.FleetAuthorize([]FleetBatchItem{
		FleetItem("home-00", "window.open", "win-1", nil),
	})
	if err != nil || len(results) != 1 || !results[0].Allowed {
		t.Fatalf("authorize after push = %+v, %v; want allow", results, err)
	}

	stats, err := c.FleetStats()
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if stats.Homes != fl.HomeCount() || stats.Shards != fl.ShardCount() || len(stats.Models) != len(fl.Registry().Models()) {
		t.Fatalf("stats = %d homes / %d shards / %d models, want %d/%d/%d",
			stats.Homes, stats.Shards, len(stats.Models), fl.HomeCount(), fl.ShardCount(), len(fl.Registry().Models()))
	}
	if stats.LowTrustHomes != 0 {
		t.Fatalf("stats.LowTrustHomes = %d, want 0 on a trust-less fleet", stats.LowTrustHomes)
	}
}

// TestFleetEndpointMethodsAndBodies: every logged-in endpoint checks the
// session before the method, so a caller without a session gets 401 on
// any method and a logged-in caller 405 on the wrong one; an empty fleet
// batch is 400.
func TestFleetEndpointMethodsAndBodies(t *testing.T) {
	srv, _ := startFleetCloud(t, 1)
	c := login(t, srv, "gateway", "s3cret")
	anon, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	other := map[string]string{http.MethodGet: http.MethodPost, http.MethodPost: http.MethodGet}
	for _, ep := range []struct{ path, method string }{
		{"/v1/devices", http.MethodGet},
		{"/v1/command", http.MethodPost},
		{"/v1/history", http.MethodGet},
		{"/v1/fleet/authorize", http.MethodPost},
		{"/v1/fleet/context", http.MethodPost},
		{"/v1/fleet/stats", http.MethodGet},
	} {
		for _, tc := range []struct {
			client     *Client
			method     string
			wantStatus int
		}{
			{anon, ep.method, http.StatusUnauthorized},
			{anon, other[ep.method], http.StatusUnauthorized},
			{c, other[ep.method], http.StatusMethodNotAllowed},
		} {
			err := tc.client.do(tc.method, ep.path, nil, nil)
			apiErr, ok := err.(*APIError)
			if !ok || apiErr.StatusCode != tc.wantStatus {
				t.Errorf("%s %s (logged in %v) = %v, want HTTP %d", tc.method, ep.path, tc.client == c, err, tc.wantStatus)
			}
		}
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/fleet/authorize", fleetAuthorizeRequest{}},
		{"/v1/fleet/context", map[string]any{"pushes": nil}},
	} {
		err := c.do(http.MethodPost, tc.path, tc.body, nil)
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with no items = %v, want HTTP 400", tc.path, err)
		}
	}
}

// TestFleetHomeOwnershipIsolation pins the tenant boundary: a session can
// only push context for, and authorize against, homes bound to its own
// account — another authenticated account pushing fabricated context for a
// victim's home, then authorizing sensitive instructions against it, is
// rejected at the binding gate (the fleet analogue of handleCommand's
// device-ownership check).
func TestFleetHomeOwnershipIsolation(t *testing.T) {
	fl := fleetForCloudTest(t, 1)
	srv, err := NewServer(Config{
		Users:    map[string]string{"victim": "s3cret", "intruder": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  func(in instr.Instruction) error { return nil },
		Fleet:    fl,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindHome("home-00", "victim"); err != nil {
		t.Fatal(err)
	}
	// A home cannot be re-bound to a different account.
	if err := srv.BindHome("home-00", "intruder"); err == nil {
		t.Fatal("BindHome rebound a home to another account")
	}
	if err := srv.BindHome("home-00", "nobody"); err == nil {
		t.Fatal("BindHome accepted an unknown user")
	}

	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}

	// The intruder's session cannot fabricate the victim's context.
	intruder := login(t, srv, "intruder", "s3cret")
	accepted, rejected, err := intruder.FleetPushContext(map[string]sensor.Snapshot{"home-00": legal})
	if err != nil || accepted != 0 || len(rejected) != 1 || rejected[0].Error != errHomeNotBound {
		t.Fatalf("intruder push = %d, %+v, %v; want 0 accepted + not-bound rejection", accepted, rejected, err)
	}
	// Nor authorize against it — with or without inline context.
	for _, snap := range []*sensor.Snapshot{&legal, nil} {
		results, err := intruder.FleetAuthorize([]FleetBatchItem{
			FleetItem("home-00", "window.open", "win-1", snap),
		})
		if err != nil || len(results) != 1 {
			t.Fatalf("intruder authorize = %+v, %v", results, err)
		}
		if results[0].Error != errHomeNotBound || results[0].Allowed {
			t.Fatalf("intruder authorize result = %+v, want %q", results[0], errHomeNotBound)
		}
	}

	// The owner's session still works end to end.
	victim := login(t, srv, "victim", "s3cret")
	results, err := victim.FleetAuthorize([]FleetBatchItem{
		FleetItem("home-00", "window.open", "win-1", &legal),
	})
	if err != nil || len(results) != 1 || results[0].Error != "" || !results[0].Allowed {
		t.Fatalf("owner authorize = %+v, %v; want allow", results, err)
	}
}

// TestFleetEndpointsAbsentWithoutFleet pins that a fleet-less cloud does
// not mount the endpoints at all.
func TestFleetEndpointsAbsentWithoutFleet(t *testing.T) {
	srv, _ := startCloud(t, nil)
	c := login(t, srv, "alice", "s3cret")
	err := c.do(http.MethodGet, "/v1/fleet/stats", nil, nil)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("fleet route on fleet-less cloud = %v, want 404", err)
	}
}

// postDeclaringLength sends body to a fleet handler as an authenticated
// POST whose declared Content-Length is declared.
func postDeclaringLength(c *Client, h http.HandlerFunc, path, body string, declared int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header["Authorization"] = c.auth
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

// requireTooLarge fails unless rec is a 413 carrying an error body.
func requireTooLarge(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Error == "" {
		t.Fatalf("oversized body = HTTP %d %q, want 413 with an error body", rec.Code, rec.Body.String())
	}
}

// TestFleetAuthorizeBodyTooLarge pins the body bound on the authorize
// endpoint: a body declared beyond maxFleetBodyBytes is refused with 413
// before any of it is decoded (the item cap alone let an unbounded body
// be read first).
func TestFleetAuthorizeBodyTooLarge(t *testing.T) {
	srv, _ := startFleetCloud(t, 1)
	c := login(t, srv, "gateway", "s3cret")
	rec := postDeclaringLength(c, srv.handleFleetAuthorize, "/v1/fleet/authorize", `{"items":[]}`, maxFleetBodyBytes+1)
	requireTooLarge(t, rec)
}

// TestFleetContextBodyTooLarge is the same bound on the context-push
// endpoint.
func TestFleetContextBodyTooLarge(t *testing.T) {
	srv, _ := startFleetCloud(t, 1)
	c := login(t, srv, "gateway", "s3cret")
	rec := postDeclaringLength(c, srv.handleFleetContext, "/v1/fleet/context", `{"pushes":[]}`, maxFleetBodyBytes+1)
	requireTooLarge(t, rec)
}

// TestDecodeFleetBodyLimit exercises the read-side bound with a small
// limit: a body of unknown length is cut at the limit with 413, one at
// the limit decodes, and malformed JSON within it is a 400.
func TestDecodeFleetBodyLimit(t *testing.T) {
	body := `{"items":[` + strings.Repeat(" ", 40) + `]}` // 52 bytes
	for _, tc := range []struct {
		name   string
		body   string
		limit  int64
		want   int
		decode bool
	}{
		{"under", body, 64, http.StatusOK, true},
		{"at limit", body, int64(len(body)), http.StatusOK, true},
		{"over", body, int64(len(body)) - 1, http.StatusRequestEntityTooLarge, false},
		{"malformed", `{"items":[`, 64, http.StatusBadRequest, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// An io.MultiReader hides the length, as a chunked body does.
			req := httptest.NewRequest(http.MethodPost, "/v1/fleet/authorize", io.MultiReader(strings.NewReader(tc.body)))
			rec := httptest.NewRecorder()
			var v fleetAuthorizeRequest
			if got := decodeFleetBody(rec, req, tc.limit, v.unmarshal); got != tc.decode {
				t.Fatalf("decoded = %v, want %v", got, tc.decode)
			}
			if tc.decode {
				return
			}
			if rec.Code != tc.want {
				t.Fatalf("HTTP %d %q, want %d", rec.Code, rec.Body.String(), tc.want)
			}
			if tc.want == http.StatusRequestEntityTooLarge {
				requireTooLarge(t, rec)
			}
		})
	}
}
