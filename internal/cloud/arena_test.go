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

// narrowScene is tenant B's scene: two of the features a legal window
// scene carries, so decoded into a slot that held one of tenant A's
// scenes it rewrites a wider scene's entries, and too few for the window
// model, so window.open judged on it fails closed as missing context.
func narrowScene() sensor.Snapshot {
	s := sensor.NewSnapshot(time.Date(2100, 6, 1, 0, 0, 0, 0, time.UTC))
	s.Set(sensor.FeatMotion, sensor.Bool(false))
	s.Set(sensor.FeatSmoke, sensor.Bool(true))
	return s
}

// narrowBodies encodes tenant B's authorize batch, 100 window.open items
// on its homes, and its push batch, 100 pushes to its homes, each carrying
// narrowScene.
func narrowBodies(t testing.TB, homes int) (authorize, push []byte) {
	t.Helper()
	scene := narrowScene()
	items := make([]FleetBatchItem, 100)
	pushes := make([]fleetContextPush, len(items))
	for i := range items {
		home := fmt.Sprintf("b-%02d", i%homes)
		items[i] = FleetItem(home, "window.open", "win-1", &scene)
		pushes[i] = fleetContextPush{Home: home, Context: scene}
	}
	authorize, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	if push, err = appendContextRequest(nil, pushes); err != nil {
		t.Fatal(err)
	}
	return authorize, push
}

// requireNarrowScene fails unless s holds exactly narrowScene's values,
// with nothing in the entries past them: no value of a wider scene the
// slot held before is readable, through the snapshot or its storage.
func requireNarrowScene(t *testing.T, name string, s sensor.Snapshot) {
	t.Helper()
	want := narrowScene()
	if !s.At.Equal(want.At) || s.Len() != want.Len() {
		t.Fatalf("%s = %v with %d values, want tenant B's %d at %v", name, s.At, s.Len(), want.Len(), want.At)
	}
	want.Range(func(f sensor.Feature, v sensor.Value) bool {
		if got, ok := s.Get(f); !ok || !got.Equal(v) {
			t.Fatalf("%s[%s] = %v, want tenant B's %v", name, f, got, v)
		}
		return true
	})
	requireSceneTailZero(t, name, s)
}

// requireSceneTailZero fails unless the value entries of s in [len, cap)
// are zero, the contract of every slice a pooled request reuses.
func requireSceneTailZero(t *testing.T, name string, s sensor.Snapshot) {
	t.Helper()
	if vals := reflect.ValueOf(s).FieldByName("vals"); !vals.IsNil() {
		requireTailZeroValue(t, name+" entries", vals.Elem().FieldByName("es"))
	}
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

// TestFleetContextNoLeak: a pooled context-push request carries nothing
// of one request into the next. Tenant A pushes legal scenes to its
// homes; tenant B's pushes name B's homes and either omit their context,
// so B's homes hold empty context (a heartbeat keeps a home's values, and
// B's homes have none), or carry a scene narrower than A's, decoded into
// the scene storage A's scenes left. Either way B's sensitive
// instructions on them fail closed as missing context. Were the request
// pooled uncleared, or a narrower scene decoded over a wider one kept the
// wider one's entries, B's pushes would push A's values into B's homes.
func TestFleetContextNoLeak(t *testing.T) {
	const homes = 16
	pushA, pushB := contextBodies(t, homes)
	_, authB := tenantBodies(t, homes)
	_, pushNarrow := narrowBodies(t, homes)

	t.Run("serial", func(t *testing.T) {
		srv := tenantCloud(t, homes)
		ca := login(t, srv, "tenant-a", "a-secret")
		cb := login(t, srv, "tenant-b", "b-secret")
		for round := 0; round < 20; round++ {
			b := pushB
			if round%2 == 1 {
				b = pushNarrow
			}
			for _, err := range []error{pushContext(srv, ca, pushA, 256), pushContext(srv, cb, b, 100)} {
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, authB), 100)
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
					b := pushB
					if round%2 == 1 {
						b = pushNarrow
					}
					if err := pushContext(srv, cb, b, 100); err != nil {
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
		// B's homes hold only B's empty or narrow context: none of A's
		// values reached them, so every B item fails closed.
		requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, authB), 100)
	})
}

// requireTailZero fails unless every element of the slice s in
// [len, cap) is zero.
func requireTailZero(t *testing.T, name string, s any) {
	t.Helper()
	requireTailZeroValue(t, name, reflect.ValueOf(s))
}

// requireTailZeroValue is requireTailZero for a slice read by reflection,
// which may be an unexported field.
func requireTailZeroValue(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	all := v.Slice(0, v.Cap())
	for i := v.Len(); i < v.Cap(); i++ {
		if !all.Index(i).IsZero() {
			t.Fatalf("%s[%d] = %+v beyond the length %d, want zero", name, i, all.Index(i), v.Len())
		}
	}
}

// TestFleetArenaResetClears: every element of an arena's slices in
// [len, cap) is zero, after a body whose second, shorter items array
// replaced a longer first one as well as after reset, which empties the
// arena and keeps its capacity.
func TestFleetArenaResetClears(t *testing.T) {
	bodyA, _ := tenantBodies(t, 16)
	body := append(bytes.TrimSuffix(bodyA, []byte("}")), `,"items":[{"home":"b-00","op":"window.open"}]}`...)
	a := new(authorizeArena)
	if err := a.req.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	want := fleet.BatchItem{Home: "b-00", In: instr.Instruction{Op: "window.open"}}
	if len(a.req.Items) != 1 || cap(a.req.Items) < 256 || !reflect.DeepEqual(a.req.Items[0], want) {
		t.Fatalf("decoded %d items of capacity %d, first %+v; want the second array's 1 over the first's 256", len(a.req.Items), cap(a.req.Items), a.req.Items[0])
	}
	requireTailZero(t, "items after a repeated array", a.req.Items)
	if len(a.req.scenes) < 256 || a.req.scenes[0].Len() == 0 {
		t.Fatalf("decoded into %d scene slots, the first with %d values; want the first array's 256 scenes", len(a.req.scenes), a.req.scenes[0].Len())
	}
	a.out = make([]fleet.BatchResult, 256)
	for i := range a.out {
		a.out[i] = fleet.BatchResult{Err: "unknown home a-00"}
	}
	a.req.marks.set(0, rejectOversized, true)
	if !a.reset() {
		t.Fatal("a 256-item arena was not kept for pooling")
	}
	requireTailZero(t, "items", a.req.Items)
	requireTailZero(t, "out", a.out)
	requireEmptySlots(t, a.req.scenes)
	if cap(a.req.Items) == 0 || cap(a.out) == 0 || len(a.req.scenes) < 256 {
		t.Fatal("reset lost the arena's capacity")
	}
	if len(a.req.Items)+len(a.out)+len(a.req.marks.rs) != 0 {
		t.Fatal("reset left a non-empty slice")
	}

	big := &authorizeArena{out: make([]fleet.BatchResult, maxPooledBuf/arenaItemBytes+1)}
	if big.reset() {
		t.Fatalf("an arena of %d items (over %d B) was kept for pooling", cap(big.out), maxPooledBuf)
	}
	big = &authorizeArena{req: fleetAuthorizeRequest{scenes: make(sceneSlots, maxPooledBuf/arenaItemBytes+1)}}
	if big.reset() {
		t.Fatalf("an arena of %d scene slots (over %d B) was kept for pooling", cap(big.req.scenes), maxPooledBuf)
	}
}

// requireEmptySlots fails unless every scene slot holds no values and the
// zero time, as reset leaves them, keeping their value storage.
func requireEmptySlots(t *testing.T, slots sceneSlots) {
	t.Helper()
	for i, s := range slots {
		if s.Len() != 0 || !s.At.IsZero() {
			t.Fatalf("scene slot %d holds %d values at %v after reset, want none", i, s.Len(), s.At)
		}
		requireSceneTailZero(t, fmt.Sprintf("scene slot %d", i), s)
	}
}

// TestFleetContextResetClears: every item of the shared arena in
// [len, cap) is zero after a context-push body, whose second, shorter
// pushes array replaced a longer first one, as well as after reset, and
// an arena grown past maxPooledBuf by a push batch is not pooled.
func TestFleetContextResetClears(t *testing.T) {
	pushA, _ := contextBodies(t, 16)
	body := append(bytes.TrimSuffix(pushA, []byte("}")), `,"pushes":[{"home":"b-00"}]}`...)
	a := new(authorizeArena)
	if err := a.req.unmarshalPushes(body); err != nil {
		t.Fatal(err)
	}
	if len(a.req.Items) != 1 || cap(a.req.Items) < 256 || !reflect.DeepEqual(a.req.Items[0], fleet.BatchItem{Home: "b-00"}) {
		t.Fatalf("decoded %d pushes of capacity %d, first %+v; want the second array's 1 over the first's 256", len(a.req.Items), cap(a.req.Items), a.req.Items[0])
	}
	requireTailZero(t, "pushes after a repeated array", a.req.Items)
	if !a.reset() {
		t.Fatal("a 256-push arena was not kept for pooling")
	}
	requireTailZero(t, "pushes", a.req.Items)
	requireEmptySlots(t, a.req.scenes)
	if cap(a.req.Items) == 0 || len(a.req.scenes) < 256 || len(a.req.Items)+len(a.req.marks.rs) != 0 {
		t.Fatal("reset lost the capacity or left a non-empty slice")
	}

	big := &authorizeArena{req: fleetAuthorizeRequest{Items: make([]fleet.BatchItem, maxPooledBuf/arenaItemBytes+1)}}
	if big.reset() {
		t.Fatalf("an arena of %d pushes (over %d B) was kept for pooling", cap(big.req.Items), maxPooledBuf)
	}
}

// dirtyArena returns an arena as tenant A's request leaves it, never
// reset: A's 256 decoded items with their scenes, marks on some of them,
// and a result on every item.
func dirtyArena(t *testing.T, bodyA []byte) *authorizeArena {
	t.Helper()
	a := new(authorizeArena)
	if err := a.req.unmarshal(bodyA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(a.req.Items); i += 7 {
		a.req.marks.set(i, rejectOversized, true)
		a.req.marks.set(i+3, rejectVocabulary, true)
	}
	a.out = make([]fleet.BatchResult, len(a.req.Items))
	for i := range a.out {
		a.out[i] = fleet.BatchResult{Err: errHomeNotBound}
	}
	return a
}

// dirtyContextRequest is dirtyArena for a context push: the arena as
// tenant A's push batch leaves it, never reset.
func dirtyContextRequest(t *testing.T, pushA []byte) *authorizeArena {
	t.Helper()
	a := new(authorizeArena)
	if err := a.req.unmarshalPushes(pushA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(a.req.Items); i += 7 {
		a.req.marks.set(i, rejectOversized, true)
	}
	return a
}

// TestFleetArenaDirtyNoLeak: tenant isolation rests on decoding, not on
// reset. An arena and a context-push request left dirty by tenant A, its
// homes, scenes, marks and results within their capacity, decode tenant
// B's shorter bodies into items and pushes that carry nothing of A's:
// context-free bodies, and bodies whose scenes are narrower than A's and
// decode into the scene storage A's scenes left, where no value of A's
// stays readable, not even past the scene's end. Put back into their
// pools dirty, they serve B's requests through the handlers just as clean
// ones do: every B item fails closed as missing context, and no A scene
// reaches a B home.
func TestFleetArenaDirtyNoLeak(t *testing.T) {
	const homes = 16
	bodyA, bodyB := tenantBodies(t, homes)
	pushA, pushB := contextBodies(t, homes)
	bodyNarrow, pushNarrow := narrowBodies(t, homes)

	a := dirtyArena(t, bodyA)
	if err := a.req.unmarshal(bodyB); err != nil {
		t.Fatal(err)
	}
	if len(a.req.Items) != 100 {
		t.Fatalf("decoded %d items over tenant A's, want tenant B's 100", len(a.req.Items))
	}
	for i, it := range a.req.Items {
		want := fleet.BatchItem{Home: fmt.Sprintf("b-%02d", i%homes), In: instr.Instruction{Op: "window.open", DeviceID: "win-1"}}
		if !reflect.DeepEqual(it, want) || a.req.marks.has(i, rejectOversized|rejectVocabulary) {
			t.Fatalf("tenant B item %d = %+v, marked %v; want %+v, unmarked", i, it, a.req.marks.has(i, rejectOversized|rejectVocabulary), want)
		}
	}
	a = dirtyArena(t, bodyA)
	if err := a.req.unmarshal(bodyNarrow); err != nil {
		t.Fatal(err)
	}
	if len(a.req.Items) != 100 {
		t.Fatalf("decoded %d items over tenant A's, want tenant B's 100", len(a.req.Items))
	}
	for i, it := range a.req.Items {
		if it.Home != fmt.Sprintf("b-%02d", i%homes) || it.Context == nil || a.req.marks.has(i, rejectOversized|rejectVocabulary) {
			t.Fatalf("tenant B item %d = %+v; want its home and its scene, unmarked", i, it)
		}
		requireNarrowScene(t, fmt.Sprintf("tenant B item %d's scene", i), *it.Context)
	}
	req := dirtyContextRequest(t, pushA)
	if err := req.req.unmarshalPushes(pushNarrow); err != nil {
		t.Fatal(err)
	}
	for i, p := range req.req.Items {
		if p.Context == nil {
			t.Fatalf("tenant B push %d has no scene", i)
		}
		requireNarrowScene(t, fmt.Sprintf("tenant B push %d's scene", i), *p.Context)
	}
	// Both endpoints share the arena: pushes decode over a dirty
	// authorize arena, and items over a dirty push arena, keeping nothing
	// of the other endpoint's elements.
	for _, dirty := range []*authorizeArena{dirtyContextRequest(t, pushA), dirtyArena(t, bodyA)} {
		if err := dirty.req.unmarshalPushes(pushB); err != nil {
			t.Fatal(err)
		}
		if len(dirty.req.Items) != 100 {
			t.Fatalf("decoded %d pushes over tenant A's, want tenant B's 100", len(dirty.req.Items))
		}
		for i, p := range dirty.req.Items {
			if !reflect.DeepEqual(p, fleet.BatchItem{Home: fmt.Sprintf("b-%02d", i%homes)}) || dirty.req.marks.has(i, rejectOversized|rejectVocabulary) {
				t.Fatalf("tenant B push %d = %+v, marked %v; want its home and no context, unmarked", i, p, dirty.req.marks.has(i, rejectOversized|rejectVocabulary))
			}
		}
	}
	a = dirtyContextRequest(t, pushA)
	if err := a.req.unmarshal(bodyB); err != nil {
		t.Fatal(err)
	}
	for i, it := range a.req.Items {
		want := fleet.BatchItem{Home: fmt.Sprintf("b-%02d", i%homes), In: instr.Instruction{Op: "window.open", DeviceID: "win-1"}}
		if !reflect.DeepEqual(it, want) || a.req.marks.has(i, rejectOversized) {
			t.Fatalf("tenant B item %d over tenant A's pushes = %+v; want %+v, unmarked", i, it, want)
		}
	}

	srv := tenantCloud(t, homes)
	ca := login(t, srv, "tenant-a", "a-secret")
	cb := login(t, srv, "tenant-b", "b-secret")
	if err := pushContext(srv, ca, pushA, 256); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	for range rounds {
		arenaPool.Put(dirtyArena(t, bodyA))
		arenaPool.Put(dirtyContextRequest(t, pushA))
	}
	for range rounds {
		requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyB), 100)
	}
	for round := range rounds {
		if err := pushContext(srv, cb, pushB, 100); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyB), 100)
	for range rounds {
		arenaPool.Put(dirtyArena(t, bodyA))
		arenaPool.Put(dirtyContextRequest(t, pushA))
	}
	for round := range rounds {
		requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyNarrow), 100)
		if err := pushContext(srv, cb, pushNarrow, 100); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	requireFailedClosedMissing(t, authorizeDirect(t, srv, cb, bodyB), 100)
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

// TestFleetAuthorizeSceneDecodeAllocs: decoding a 256-item, scene-bearing
// authorize body into a warmed pooled arena allocates nothing per scene,
// since each scene is written into the entries its slot kept from the
// request before. The same body without its scenes is the baseline: its
// strings.
func TestFleetAuthorizeSceneDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	items, _ := wireFixture(t)
	withScenes, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	scenes := 0
	for i := range items {
		if items[i].Context != nil {
			items[i].Context = nil
			scenes++
		}
	}
	without, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(body []byte) float64 {
		a := new(authorizeArena)
		run := func() {
			if err := a.req.unmarshal(body); err != nil {
				t.Fatal(err)
			}
			if !a.reset() {
				t.Fatal("a 256-item arena was not kept for pooling")
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	got, base := decode(withScenes), decode(without)
	t.Logf("%d items, %d with scenes: %.0f allocs per body, %.0f without the scenes", len(items), scenes, got, base)
	if perScene := (got - base) / float64(scenes); perScene > 0 {
		t.Fatalf("a scene decoded into a warmed arena allocates %.2f/op, want 0", perScene)
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
