package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// tenantCloud starts a fleet cloud with two accounts, each owning its own
// homes: a-00.. for tenant-a and b-00.. for tenant-b.
func tenantCloud(t testing.TB, homes int) *Server {
	t.Helper()
	reg, err := fleet.NewModelRegistry(fleetMemory(t))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(fleet.Config{Detector: det, Models: reg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Users:    map[string]string{"tenant-a": "a-secret", "tenant-b": "b-secret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  (&captureForwarder{}).forward,
		Fleet:    fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < homes; i++ {
			id := fmt.Sprintf("%s-%02d", tenant, i)
			if _, err := fl.AddHome(fleet.HomeConfig{ID: id}); err != nil {
				t.Fatal(err)
			}
			if err := srv.BindHome(id, "tenant-"+tenant); err != nil {
				t.Fatal(err)
			}
		}
	}
	return srv
}

// tenantBodies encodes tenant A's batch, 256 window.open items on its
// homes, each with a legal scene and args, and tenant B's, 100 window.open
// items on its homes with neither.
func tenantBodies(t testing.TB, homes int) (a, b []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	items := make([]FleetBatchItem, 256)
	for i := range items {
		scene, err := dataset.LegalScene(dataset.ModelWindow, rng)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = FleetItem(fmt.Sprintf("a-%02d", i%homes), "window.open", "win-1", &scene)
		items[i].Args = map[string]any{"level": float64(i), "tenant": "a"}
	}
	a, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	items = items[:100]
	for i := range items {
		items[i] = FleetItem(fmt.Sprintf("b-%02d", i%homes), "window.open", "win-1", nil)
	}
	b, err = appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// authorizeDirect runs the authorize handler on body in the calling
// goroutine, so consecutive requests reuse one pooled arena.
func authorizeDirect(t testing.TB, srv *Server, c *Client, body []byte) []FleetResult {
	t.Helper()
	rec := postDeclaringLength(c, srv.handleFleetAuthorize, "/v1/fleet/authorize", string(body), int64(len(body)))
	var resp fleetAuthorizeResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("authorize = HTTP %d %q", rec.Code, rec.Body.String())
	}
	if err := resp.unmarshal(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

// requireFailedClosedMissing fails unless every result is a sensitive
// instruction failed closed for missing context.
func requireFailedClosedMissing(t testing.TB, results []FleetResult, want int) {
	t.Helper()
	if len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	for i, r := range results {
		if r.Allowed || !r.Sensitive || r.Error != "" || r.Reason != core.ReasonMissing {
			t.Fatalf("tenant B item %d = %+v, want a sensitive instruction failed closed as %q", i, r, core.ReasonMissing)
		}
	}
}

// TestFleetArenaNoLeak: a pooled request arena carries nothing of one
// request into the next. Tenant A's batch carries a scene and args on
// every item; tenant B's shorter batch names B's homes, which were never
// pushed context, and carries none, so every B item must fail closed as
// ContextMissing. Were the arena pooled uncleared, B's items would decode
// over A's and judge on A's scenes.
func TestFleetArenaNoLeak(t *testing.T) {
	const homes = 16
	bodyA, bodyB := tenantBodies(t, homes)

	t.Run("serial", func(t *testing.T) {
		srv := tenantCloud(t, homes)
		ca := login(t, srv, "tenant-a", "a-secret")
		cb := login(t, srv, "tenant-b", "b-secret")
		for round := 0; round < 20; round++ {
			for i, r := range authorizeDirect(t, srv, ca, bodyA) {
				if !r.Allowed || !r.Sensitive || r.Error != "" {
					t.Fatalf("round %d: tenant A item %d = %+v, want allowed on its legal scene", round, i, r)
				}
			}
			requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyB), 100)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		srv := tenantCloud(t, homes)
		ca := login(t, srv, "tenant-a", "a-secret")
		cb := login(t, srv, "tenant-b", "b-secret")
		const rounds = 40
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					rec := postDeclaringLength(ca, srv.handleFleetAuthorize, "/v1/fleet/authorize", string(bodyA), int64(len(bodyA)))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("tenant A: HTTP %d", rec.Code)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					rec := postDeclaringLength(cb, srv.handleFleetAuthorize, "/v1/fleet/authorize", string(bodyB), int64(len(bodyB)))
					var resp fleetAuthorizeResponse
					if err := resp.unmarshal(rec.Body.Bytes()); err != nil || rec.Code != http.StatusOK {
						errs <- fmt.Errorf("tenant B: HTTP %d: %v", rec.Code, err)
						return
					}
					for i, r := range resp.Results {
						if r.Allowed || r.Reason != core.ReasonMissing {
							errs <- fmt.Errorf("tenant B round %d item %d = %+v, want failed closed as missing context", round, i, r)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// B's homes still hold no context: none of A's scenes reached them.
		requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyB), 100)
	})
}

// contextBodies encodes tenant A's push batch, 256 legal window scenes on
// its homes, and tenant B's, 100 pushes that name B's homes and carry no
// context. A's scenes are stamped in 2100, so one that leaked into a B
// push would never be dropped as behind B's own pushes, which the fleet
// stamps on receipt.
func contextBodies(t testing.TB, homes int) (a, b []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	pushes := make([]fleetContextPush, 256)
	for i := range pushes {
		scene, err := dataset.LegalScene(dataset.ModelWindow, rng)
		if err != nil {
			t.Fatal(err)
		}
		scene.At = time.Date(2100, 1, 1, 0, 0, i, 0, time.UTC)
		pushes[i] = fleetContextPush{Home: fmt.Sprintf("a-%02d", i%homes), Context: scene}
	}
	a, err := appendContextRequest(nil, pushes)
	if err != nil {
		t.Fatal(err)
	}
	b = []byte(`{"pushes":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"home":"b-%02d"}`, i%homes)
	}
	return a, append(b, "]}"...)
}

// pushContext runs the context handler on body in the calling goroutine
// and reports an error unless all want pushes were accepted.
func pushContext(srv *Server, c *Client, body []byte, want int) error {
	rec := postDeclaringLength(c, srv.handleFleetContext, "/v1/fleet/context", string(body), int64(len(body)))
	var resp fleetContextResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		return fmt.Errorf("context push = HTTP %d %q", rec.Code, rec.Body.String())
	}
	if resp.Accepted != want || len(resp.Errors) != 0 {
		return fmt.Errorf("context push accepted %d of %d, errors %+v", resp.Accepted, want, resp.Errors)
	}
	return nil
}

// requireNoneAllowed fails if any of tenant B's window.open items was
// allowed: on the empty context B pushed, each fails to featurize.
func requireNoneAllowed(t testing.TB, results []FleetResult) {
	t.Helper()
	for i, r := range results {
		if r.Allowed {
			t.Fatalf("tenant B item %d = %+v, allowed on context B never pushed", i, r)
		}
	}
}

// TestFleetContextNoLeak: a pooled context-push request carries nothing
// of one request into the next. Tenant A pushes legal scenes to its
// homes; tenant B's pushes name B's homes and omit their context, so B's
// homes hold empty context and B's sensitive instructions on them must
// not be allowed. Were the request pooled uncleared, B's pushes would
// decode over A's and push A's scenes into B's homes.
func TestFleetContextNoLeak(t *testing.T) {
	const homes = 16
	pushA, pushB := contextBodies(t, homes)
	_, authB := tenantBodies(t, homes)

	t.Run("serial", func(t *testing.T) {
		srv := tenantCloud(t, homes)
		ca := login(t, srv, "tenant-a", "a-secret")
		cb := login(t, srv, "tenant-b", "b-secret")
		for round := 0; round < 20; round++ {
			for _, err := range []error{pushContext(srv, ca, pushA, 256), pushContext(srv, cb, pushB, 100)} {
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			requireNoneAllowed(t, authorizeDirect(t, srv, cb, authB))
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		srv := tenantCloud(t, homes)
		ca := login(t, srv, "tenant-a", "a-secret")
		cb := login(t, srv, "tenant-b", "b-secret")
		const rounds = 40
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					if err := pushContext(srv, ca, pushA, 256); err != nil {
						errs <- fmt.Errorf("tenant A: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					if err := pushContext(srv, cb, pushB, 100); err != nil {
						errs <- fmt.Errorf("tenant B: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// B's homes hold only B's empty context: none of A's scenes
		// reached them.
		requireNoneAllowed(t, authorizeDirect(t, srv, cb, authB))
	})
}

// TestFleetArenaResetClears: reset leaves every element within each of the
// arena's slices' capacity zero, including the items an earlier, longer
// items array in the same body wrote beyond the final slice's length.
func TestFleetArenaResetClears(t *testing.T) {
	bodyA, _ := tenantBodies(t, 16)
	body := append(bytes.TrimSuffix(bodyA, []byte("}")), `,"items":[{"home":"b-00","op":"window.open"}]}`...)
	a := new(authorizeArena)
	if err := a.req.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if len(a.req.Items) != 1 || a.req.used != 256 || a.req.Items[:2][1].Context == nil {
		t.Fatalf("decoded %d items (used %d); want the second array's 1 over the first's 256", len(a.req.Items), a.req.used)
	}
	n := a.req.used
	a.results = make([]FleetResult, n)
	a.batch = make([]fleet.BatchItem, n)
	a.idxs = make([]int, n)
	a.out = make([]fleet.BatchResult, n)
	for i := range n {
		a.results[i] = FleetResult{Allowed: true, Reason: "allowed"}
		a.batch[i] = fleet.BatchItem{Home: "a-00", In: instr.Instruction{Op: "window.open", Args: map[string]any{"level": 1.0}}, Context: &sensor.Snapshot{}}
		a.idxs[i] = i
		a.out[i] = fleet.BatchResult{Err: "unknown home a-00"}
	}
	if !a.reset() {
		t.Fatal("a 256-item arena was not kept for pooling")
	}
	requireZero := func(name string, s any) {
		v := reflect.ValueOf(s)
		v = v.Slice(0, v.Cap())
		for i := 0; i < v.Len(); i++ {
			if !v.Index(i).IsZero() {
				t.Fatalf("%s[%d] = %+v after reset, want zero", name, i, v.Index(i))
			}
		}
		if v.Cap() == 0 {
			t.Fatalf("%s lost its capacity", name)
		}
	}
	requireZero("items", a.req.Items)
	requireZero("results", a.results)
	requireZero("batch", a.batch)
	requireZero("out", a.out)
	if len(a.req.Items)+len(a.results)+len(a.batch)+len(a.idxs)+len(a.out)+len(a.req.marks.rs) != 0 || a.req.used != 0 {
		t.Fatal("reset left a non-empty slice or a high-water mark")
	}

	big := &authorizeArena{out: make([]fleet.BatchResult, maxPooledBuf/arenaItemBytes+1)}
	if big.reset() {
		t.Fatalf("an arena of %d items (over %d B) was kept for pooling", cap(big.out), maxPooledBuf)
	}
}

// TestFleetContextResetClears: reset leaves every push within the pooled
// request's capacity zero, including those an earlier, longer pushes
// array in the same body wrote beyond the final slice's length.
func TestFleetContextResetClears(t *testing.T) {
	pushA, _ := contextBodies(t, 16)
	body := append(bytes.TrimSuffix(pushA, []byte("}")), `,"pushes":[{"home":"b-00"}]}`...)
	req := new(fleetContextRequest)
	if err := req.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if len(req.Pushes) != 1 || req.used != 256 || req.Pushes[:2][1].Context.Len() == 0 {
		t.Fatalf("decoded %d pushes (used %d); want the second array's 1 over the first's 256", len(req.Pushes), req.used)
	}
	if !req.reset() {
		t.Fatal("a 256-push request was not kept for pooling")
	}
	all := req.Pushes[:cap(req.Pushes)]
	for i := range all {
		if all[i].Home != "" || all[i].Context.Len() != 0 || !all[i].Context.At.IsZero() {
			t.Fatalf("push %d = %+v after reset, want zero", i, all[i])
		}
	}
	if len(all) == 0 || len(req.Pushes)+len(req.marks.rs) != 0 || req.used != 0 {
		t.Fatal("reset lost the capacity or left a non-empty slice or a high-water mark")
	}

	big := &fleetContextRequest{Pushes: make([]fleetContextPush, maxPooledBuf/unsafe.Sizeof(fleetContextPush{})+1)}
	if big.reset() {
		t.Fatalf("a request of %d pushes (over %d B) was kept for pooling", cap(big.Pushes), maxPooledBuf)
	}
}

// discardWriter is a reusable ResponseWriter that keeps only the status,
// so a handler's own allocations can be measured.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// handlerRig replays one authorize body through the handler with a reused
// request and response writer.
type handlerRig struct {
	srv  *Server
	req  *http.Request
	body *bytes.Reader
	w    *discardWriter
}

func newHandlerRig(t testing.TB, srv *Server, c *Client, body []byte) *handlerRig {
	r := &handlerRig{srv: srv, body: bytes.NewReader(body), w: &discardWriter{h: make(http.Header)}}
	r.req = httptest.NewRequest(http.MethodPost, "/v1/fleet/authorize", r.body)
	r.req.Header["Authorization"] = c.auth
	r.serve(t)
	return r
}

func (r *handlerRig) serve(t testing.TB) {
	_, _ = r.body.Seek(0, 0)
	r.w.code = 0
	r.srv.handleFleetAuthorize(r.w, r.req)
	if r.w.code != http.StatusOK {
		t.Fatalf("authorize = HTTP %d", r.w.code)
	}
}

// fleetHandlerBodies encodes the 256-item bulk_mixed-shaped fixture on the
// fleet cloud's homes, and a 256-item status-only batch.
func fleetHandlerBodies(t testing.TB, homes int) (mixed, status []byte) {
	t.Helper()
	items, _ := wireFixture(t)
	for i := range items {
		items[i].Home = fmt.Sprintf("home-%02d", i%homes)
	}
	mixed, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		items[i] = FleetItem(fmt.Sprintf("home-%02d", i%homes), "light.get_state", "lamp-1", nil)
	}
	status, err = appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	return mixed, status
}

// TestFleetAuthorizeScaffoldingBytes bounds what a 256-item status batch
// allocates per item in the handler: the decoded strings and the fleet's
// per-request fan-out, not per-request slices. With the request's slices
// allocated per request it was about 460 B per item; with the pooled
// arena it is about 35.
func TestFleetAuthorizeScaffoldingBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const homes, requests, items = 64, 200, 256
	srv, _ := startFleetCloud(t, homes)
	_, status := fleetHandlerBodies(t, homes)
	rig := newHandlerRig(t, srv, login(t, srv, "gateway", "s3cret"), status)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		rig.serve(t)
	}
	runtime.ReadMemStats(&after)
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / (requests * items)
	t.Logf("%.0f B allocated per status item", perItem)
	const limit = 96
	if perItem > limit {
		t.Fatalf("a status item allocates %.0f B in the handler, want at most %d", perItem, limit)
	}
}

// BenchmarkFleetAuthorizeHandler times the authorize handler on a 256-item
// batch: the bulk_mixed-shaped fixture (70 % sensitive with scenes) and a
// status-only batch.
func BenchmarkFleetAuthorizeHandler(b *testing.B) {
	const homes = 64
	srv, _ := startFleetCloud(b, homes)
	c := login(b, srv, "gateway", "s3cret")
	mixed, status := fleetHandlerBodies(b, homes)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"mixed", mixed}, {"status", status}} {
		b.Run(bc.name, func(b *testing.B) {
			rig := newHandlerRig(b, srv, c, bc.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.serve(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/item")
		})
	}
}
