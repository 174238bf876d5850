package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
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

// sceneJSON encodes scene.
func sceneJSON(t *testing.T, scene sensor.Snapshot) string {
	t.Helper()
	data, err := scene.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// paddedScene encodes scene with a member outside the snapshot's fields,
// which the codec skips, long enough that the encoding exceeds
// maxFleetItemBytes. A gateway's client cannot send it: no snapshot
// encodes that long.
func paddedScene(t *testing.T, scene sensor.Snapshot) string {
	t.Helper()
	return `{"pad":"` + strings.Repeat("padding ", maxFleetItemBytes/8) + `",` + sceneJSON(t, scene)[1:]
}

// postBody posts the JSON body to a fleet endpoint under c's session and
// decodes the answer with decode.
func postBody(c *Client, path, body string, decode func([]byte) error) error {
	return c.postFleet(path, func(b []byte) ([]byte, error) { return append(b, body...), nil }, decode)
}

// TestFleetAuthorizeItemTooLarge pins the per-item bound on the
// authorize endpoint: an item over maxFleetItemBytes gets its own error,
// is neither built nor judged, and its scene is not pushed, while the
// rest of the batch is judged as usual.
func TestFleetAuthorizeItemTooLarge(t *testing.T) {
	srv, _ := startFleetCloud(t, 3)
	c := login(t, srv, "gateway", "s3cret")
	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	hugeArgs := `{"padding":"` + strings.Repeat("x", maxFleetItemBytes) + `"}`
	resp := fleetAuthorizeResponse{}
	err = postBody(c, "/v1/fleet/authorize", `{"items":[`+
		`{"home":"home-00","op":"window.open","device_id":"win-1","context":`+paddedScene(t, legal)+`},`+
		`{"home":"home-01","op":"window.open","device_id":"win-1","context":`+sceneJSON(t, legal)+`},`+
		`{"home":"home-02","op":"no.such_op","device_id":"x","args":`+hugeArgs+`},`+
		`{"home":"home-02","op":"light.get_state","device_id":"lamp-1"}]}`, resp.unmarshal)
	results := resp.Results
	if err != nil || len(results) != 4 {
		t.Fatalf("FleetAuthorize = %+v, %v", results, err)
	}
	for _, i := range []int{0, 2} {
		if results[i] != (FleetResult{Error: errItemTooLarge}) {
			t.Fatalf("oversized item %d = %+v, want error %q", i, results[i], errItemTooLarge)
		}
	}
	if !results[1].Allowed || !results[1].Sensitive || results[1].Error != "" {
		t.Fatalf("legal item beside an oversized one = %+v, want allow", results[1])
	}
	if !results[3].Allowed || results[3].Error != "" {
		t.Fatalf("status item beside an oversized one = %+v, want allow", results[3])
	}

	// The oversized scene was not pushed: home-00 has no context, so a
	// context-free sensitive instruction fails closed, while home-01's
	// pushed scene still judges one.
	results, err = c.FleetAuthorize([]FleetBatchItem{
		FleetItem("home-00", "window.open", "win-1", nil),
		FleetItem("home-01", "window.open", "win-1", nil),
	})
	if err != nil || len(results) != 2 {
		t.Fatalf("FleetAuthorize = %+v, %v", results, err)
	}
	if results[0].Allowed || results[0].Reason != core.ReasonMissing {
		t.Fatalf("home-00 after an oversized scene = %+v, want %q", results[0], core.ReasonMissing)
	}
	if !results[1].Allowed {
		t.Fatalf("home-01 after its pushed scene = %+v, want allow", results[1])
	}
}

// TestFleetContextPushTooLarge is the same bound on the context-push
// endpoint: the oversized push is rejected by index and not stored, the
// other push lands.
func TestFleetContextPushTooLarge(t *testing.T) {
	srv, _ := startFleetCloud(t, 2)
	c := login(t, srv, "gateway", "s3cret")
	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	var resp fleetContextResponse
	err = postBody(c, "/v1/fleet/context", `{"pushes":[`+
		`{"home":"home-00","context":`+paddedScene(t, legal)+`},`+
		`{"home":"home-01","context":`+sceneJSON(t, legal)+`}]}`,
		func(data []byte) error { return json.Unmarshal(data, &resp) })
	want := []FleetPushError{{Index: 0, Home: "home-00", Error: errItemTooLarge}}
	if err != nil || resp.Accepted != 1 || !reflect.DeepEqual(resp.Errors, want) {
		t.Fatalf("context push = %+v, %v; want 1 accepted and %+v", resp, err, want)
	}
	results, err := c.FleetAuthorize([]FleetBatchItem{
		FleetItem("home-00", "window.open", "win-1", nil),
		FleetItem("home-01", "window.open", "win-1", nil),
	})
	if err != nil || len(results) != 2 {
		t.Fatalf("FleetAuthorize = %+v, %v", results, err)
	}
	if results[0].Allowed || results[0].Reason != core.ReasonMissing {
		t.Fatalf("home-00 after an oversized push = %+v, want %q", results[0], core.ReasonMissing)
	}
	if !results[1].Allowed {
		t.Fatalf("home-01 after its push = %+v, want allow", results[1])
	}
}

// TestFleetOversizedMarksFollowElements pins how the bound tracks an
// element across repeated arrays: a mark goes with its element, so an
// array that replaces an earlier one keeps none of its marks, and an
// element of the last array is marked only when its own JSON passes the
// bound.
func TestFleetOversizedMarksFollowElements(t *testing.T) {
	pad := `"pad":"` + strings.Repeat("x", maxFleetItemBytes) + `"`
	for _, tc := range []struct {
		name  string
		body  string
		want  []bool
		homes []string
	}{
		{"single", `{"items":[{"home":"a"},{"home":"b",` + pad + `}]}`, []bool{false, true}, []string{"a", "b"}},
		{"stale", `{"items":[{"home":"a"},{"home":"b",` + pad + `}],"items":[{}],"items":[{},{}]}`, []bool{false, false}, []string{"", ""}},
		{"truncated", `{"items":[{"home":"a"},{"home":"b",` + pad + `}],"items":[{}]}`, []bool{false}, []string{""}},
		{"after empty", `{"items":[{"home":"a"},{"home":"b",` + pad + `}],"items":[],"items":[{},{}]}`, []bool{false, false}, []string{"", ""}},
		{"after null", `{"items":[{"home":"b",` + pad + `}],"items":null,"items":[{}]}`, []bool{false}, []string{""}},
		{"later array", `{"items":[{"home":"a"},{"home":"b"}],"items":[{"home":"c",` + pad + `},{}]}`, []bool{true, false}, []string{"c", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req fleetAuthorizeRequest
			if err := req.unmarshal([]byte(tc.body)); err != nil {
				t.Fatal(err)
			}
			got := make([]bool, len(req.Items))
			homes := make([]string, len(req.Items))
			for i := range got {
				got[i], homes[i] = req.marks.has(i, rejectOversized), req.Items[i].Home
			}
			if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(homes, tc.homes) {
				t.Fatalf("oversized = %v, homes %q; want %v, %q", got, homes, tc.want, tc.homes)
			}
		})
	}
}

// oversizedArgsBody is a one-item authorize body of about 4.3 MB whose
// args object holds 100,000 small members.
func oversizedArgsBody() []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[{"home":"home-00","op":"window.open","device_id":"win-1","args":{`)
	for i := 0; i < 100_000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"arg-%06d":[%d,"v<%d>",{"n":null}]`, i, i, i)
	}
	b.WriteString(`},"context":{"values":{"smoke":false}}}]}`)
	return b.Bytes()
}

// TestFleetOversizedItemDecodeBytes bounds what decoding an oversized item
// allocates: once the item passes maxFleetItemBytes its remaining members,
// and an args object whose raw bytes pass the bound, are validated, not
// decoded, so a 4.3 MB one-item body costs a small fraction of its size,
// not the dozens of MB that decoding the args into maps and slices did.
func TestFleetOversizedItemDecodeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	body := oversizedArgsBody()
	var before, after runtime.MemStats
	var req fleetAuthorizeRequest
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := req.unmarshal(body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("decoding a %d B one-item body allocated %d B", len(body), b)
	if limit := 2 * uint64(len(body)); b > limit {
		t.Fatalf("decoding a %d B one-item body allocated %d B, want at most %d", len(body), b, limit)
	}
	if len(req.Items) != 1 || !req.marks.has(0, rejectOversized) {
		t.Fatalf("decoded %d items, oversized %v; want the one item marked", len(req.Items), req.marks.has(0, rejectOversized))
	}
}

// TestFleetUnknownFeatureMarks pins how an out-of-vocabulary mark tracks
// an element's scene: the scene decoded last decides, null clears the
// mark, and a repeated array, empty or null array drops it with the
// elements it replaces. An unknown feature marks it, and so does a value
// its feature does not admit, unless a later value of the feature
// replaces it.
func TestFleetUnknownFeatureMarks(t *testing.T) {
	const bad, good = `{"values":{"smoke":true,"ghost":1}}`, `{"values":{"smoke":true}}`
	for _, tc := range []struct {
		name string
		body string
		want []bool
	}{
		{"single", `{"ARR":[{"home":"a","context":` + good + `},{"home":"b","context":` + bad + `}]}`, []bool{false, true}},
		{"later scene wins", `{"ARR":[{"context":` + bad + `,"context":` + good + `},{"context":` + good + `,"context":` + bad + `}]}`, []bool{false, true}},
		{"stale", `{"ARR":[{"context":` + bad + `}],"ARR":[{"home":"a"}]}`, []bool{false}},
		{"replaced", `{"ARR":[{"context":` + bad + `}],"ARR":[{"context":` + good + `}]}`, []bool{false}},
		{"null scene", `{"ARR":[{"context":` + bad + `,"context":null}]}`, []bool{false}},
		{"after empty", `{"ARR":[{"context":` + bad + `}],"ARR":[],"ARR":[{}]}`, []bool{false}},
		{"after null", `{"ARR":[{"context":` + bad + `}],"ARR":null,"ARR":[{}]}`, []bool{false}},
		{"dropped by null values", `{"ARR":[{"context":{"values":{"ghost":1},"values":null}}]}`, []bool{false}},
		{"label outside its domain", `{"ARR":[{"context":{"values":{"door_lock":"ajar"}}},{"context":` + good + `}]}`, []bool{true, false}},
		{"label under a bool feature", `{"ARR":[{"context":` + good + `},{"context":{"values":{"motion":"locked"}}}]}`, []bool{false, true}},
		{"number under a label feature", `{"ARR":[{"context":{"values":{"outdoor_weather":1}}}]}`, []bool{true}},
		{"outside value replaced", `{"ARR":[{"context":{"values":{"outdoor_weather":1,"outdoor_weather":"rain"}}}]}`, []bool{false}},
	} {
		for _, arr := range []string{"items", "pushes"} {
			t.Run(tc.name+"/"+arr, func(t *testing.T) {
				body := []byte(strings.ReplaceAll(tc.body, "ARR", arr))
				var marks *batchMarks
				var n int
				var err error
				if arr == "items" {
					var req fleetAuthorizeRequest
					err, marks, n = req.unmarshal(body), &req.marks, len(req.Items)
				} else {
					var req fleetAuthorizeRequest
					err, marks, n = req.unmarshalPushes(body), &req.marks, len(req.Items)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := make([]bool, n)
				for i := range got {
					got[i] = marks.has(i, rejectVocabulary)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("unknown-feature marks = %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestFleetPushContextOrder pins FleetPushContext's push order: sorted by
// home, so the unbound home's rejection carries the same index on every
// call although the pushes come from a map.
func TestFleetPushContextOrder(t *testing.T) {
	srv, _ := startFleetCloud(t, 4)
	c := login(t, srv, "gateway", "s3cret")
	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	pushes := map[string]sensor.Snapshot{}
	for _, home := range []string{"home-03", "home-01", "home-02b", "home-00", "home-02"} {
		pushes[home] = legal
	}
	want := []FleetPushError{{Index: 3, Home: "home-02b", Error: errHomeNotBound}}
	for run := 0; run < 20; run++ {
		accepted, rejected, err := c.FleetPushContext(pushes)
		if err != nil || accepted != 4 || !reflect.DeepEqual(rejected, want) {
			t.Fatalf("run %d: FleetPushContext = %d, %+v, %v; want 4 accepted and %+v", run, accepted, rejected, err, want)
		}
	}
}

// wireFixture is a seeded 256-item batch shaped like the bulk_mixed
// workload, 70 % of its items carrying a scene, with the results a
// server would answer it with.
func wireFixture(tb testing.TB) ([]FleetBatchItem, []FleetResult) {
	tb.Helper()
	ops := map[dataset.Model]string{
		dataset.ModelWindow: "window.open", dataset.ModelAircon: "aircon.on", dataset.ModelLight: "light.on",
		dataset.ModelCurtain: "curtain.open", dataset.ModelTV: "tv.on", dataset.ModelKitchen: "cooker.start",
	}
	models := dataset.Models()
	rng := rand.New(rand.NewSource(15))
	items := make([]FleetBatchItem, 256)
	results := make([]FleetResult, len(items))
	for i := range items {
		home := fmt.Sprintf("home-%05d", rng.Intn(100000))
		if rng.Float64() >= 0.7 {
			items[i] = FleetItem(home, "light.get_state", "lamp-1", nil)
			results[i] = FleetResult{Allowed: true, Reason: "light.get_state is not a sensitive instruction"}
			continue
		}
		m := models[rng.Intn(len(models))]
		legal := rng.Float64() < 0.5
		scene, err := dataset.LegalScene(m, rng)
		if !legal {
			scene, err = dataset.AttackScene(m, rng)
		}
		if err != nil {
			tb.Fatal(err)
		}
		op := ops[m]
		items[i] = FleetItem(home, op, "dev-1", &scene)
		reason := op + " allowed: sensor context matches a legal activity scene"
		if !legal {
			reason = op + " rejected: sensor context does not match a legal activity scene"
		}
		results[i] = FleetResult{Allowed: legal, Sensitive: true, Model: string(m), Reason: reason}
	}
	return items, results
}

// wireBodies encodes the fixture's request and response bodies.
func wireBodies(tb testing.TB) (items []FleetBatchItem, results []FleetResult, reqBody, respBody []byte) {
	tb.Helper()
	items, results = wireFixture(tb)
	reqBody, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		tb.Fatal(err)
	}
	return items, results, reqBody, appendAuthorizeResponse(nil, batchResults(results))
}

// TestFleetWireDecodeOwnsItsMemory decodes each envelope from a buffer,
// overwrites the buffer, and requires the decoded value to be unchanged:
// nothing decoded aliases the body, so the body may live in a pooled
// buffer. The requests decode also with names resolved against a fleet
// holding every other home of the fixture, so a resolved name, a name no
// table holds and a device ID kept for the handler are each covered.
func TestFleetWireDecodeOwnsItsMemory(t *testing.T) {
	items, results, reqBody, respBody := wireBodies(t)
	items[0].Args = map[string]any{"level": 3.0, "mode": "eco"}
	items[1].Home = "escaped <home>  "
	reqBody, err := appendAuthorizeRequest(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	pushes := make([]fleetContextPush, 0, len(items))
	for _, it := range items {
		if it.Context != nil {
			pushes = append(pushes, fleetContextPush{Home: it.Home, Context: *it.Context})
		}
	}
	pushBody, err := appendContextRequest(nil, pushes)
	if err != nil {
		t.Fatal(err)
	}
	fl := fleetForCloudTest(t, 0)
	for i := 0; i < len(items); i += 2 {
		if _, ok := fl.Home(items[i].Home); !ok {
			if _, err := fl.AddHome(fleet.HomeConfig{ID: strings.Clone(items[i].Home)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	resolved := &wireNames{fleet: fl, ops: instr.BuiltinRegistry()}
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte) (any, error)
	}{
		{"authorize request", reqBody, func(b []byte) (any, error) {
			v := new(fleetAuthorizeRequest)
			return v, v.unmarshal(b)
		}},
		{"authorize request, resolved names", reqBody, func(b []byte) (any, error) {
			v := &fleetAuthorizeRequest{names: resolved}
			return v, v.unmarshal(b)
		}},
		{"context request", pushBody, func(b []byte) (any, error) {
			v := new(fleetAuthorizeRequest)
			return v, v.unmarshalPushes(b)
		}},
		{"context request, resolved names", pushBody, func(b []byte) (any, error) {
			v := &fleetAuthorizeRequest{names: resolved}
			return v, v.unmarshalPushes(b)
		}},
		{"authorize response", respBody, func(b []byte) (any, error) {
			v := new(fleetAuthorizeResponse)
			return v, v.unmarshal(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.decode(bytes.Clone(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.Clone(tc.body)
			got, err := tc.decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 'X'
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("decoded value changed when its body buffer was overwritten")
			}
		})
	}
	var resp fleetAuthorizeResponse
	if err := resp.unmarshal(respBody); err != nil || !reflect.DeepEqual(resp.Results, results) {
		t.Fatalf("response round trip = %v, %v", resp.Results, err)
	}

	// A resolved name is the server's own string: the fleet's copy of a
	// registered home's ID, the registry's opcode. A device ID is kept, as
	// decoded, for the handler.
	req := fleetAuthorizeRequest{names: resolved}
	if err := req.unmarshal(reqBody); err != nil {
		t.Fatal(err)
	}
	homes := 0
	for i, it := range req.Items {
		if h, ok := fl.LookupHome([]byte(it.Home)); ok {
			homes++
			if unsafe.StringData(it.Home) != unsafe.StringData(h.ID()) || req.refs.at[i].home != h {
				t.Fatalf("home %q decoded to a copy, not the fleet's ID, or was not kept", it.Home)
			}
		} else if req.refs.at[i].home != nil {
			t.Fatalf("home %q is not registered but was kept", it.Home)
		}
		if spec, _ := resolved.ops.Lookup(it.In.Op); unsafe.StringData(it.In.Op) != unsafe.StringData(spec.Op) {
			t.Fatalf("op %q decoded to a copy, not the registry's", it.In.Op)
		}
		if got := req.refs.device(i); it.In.DeviceID != "" || got != items[i].DeviceID {
			t.Fatalf("item %d: device ID decoded to %q and kept as %q, want \"\" and %q", i, it.In.DeviceID, got, items[i].DeviceID)
		}
	}
	if homes == 0 {
		t.Fatal("no decoded home is registered with the fleet")
	}
}

// TestReadBodyCapsDeclaredLength pins that a declared length only sizes
// the buffer up to maxPooledBuf: a peer that declares the full body bound
// and sends a few bytes must not make the reader hold that much memory.
func TestReadBodyCapsDeclaredLength(t *testing.T) {
	buf, err := readBody(nil, strings.NewReader("0123456789"), maxFleetBodyBytes)
	if err != nil || string(buf) != "0123456789" {
		t.Fatalf("readBody = %q, %v", buf, err)
	}
	if cap(buf) > maxPooledBuf {
		t.Fatalf("readBody reserved %d bytes for a 10-byte body, over the %d-byte cap", cap(buf), maxPooledBuf)
	}
	big := strings.Repeat("x", 3*maxPooledBuf)
	if buf, err = readBody(nil, strings.NewReader(big), maxFleetBodyBytes); err != nil || string(buf) != big {
		t.Fatalf("readBody of a %d-byte body = %d bytes, %v", len(big), len(buf), err)
	}
}

// TestFleetAuthorizeBodyReadBytes bounds what reading a large body costs.
// The read buffer doubles, up to the declared length, with the bytes that
// arrive: the authorize handler allocates under three times the 4.3 MB
// one-item body in all (about 4.9 times when the buffer grew by append),
// and a peer that declares the full body bound and sends the same bytes
// costs the reader at most four times what arrived.
func TestFleetAuthorizeBodyReadBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	srv, _ := startFleetCloud(t, 1)
	body := oversizedArgsBody()
	rig := newHandlerRig(t, srv, login(t, srv, "gateway", "s3cret"), body)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rig.serve(t)
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("the handler allocated %d B for a %d B body", b, len(body))
	if limit := 3 * uint64(len(body)); b > limit {
		t.Fatalf("the handler allocated %d B for a %d B body, want at most %d", b, len(body), limit)
	}

	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := readBody(nil, bytes.NewReader(body), maxFleetBodyBytes)
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != len(body) {
		t.Fatalf("readBody = %d B, %v; want %d", len(got), err, len(body))
	}
	b = after.TotalAlloc - before.TotalAlloc
	t.Logf("reading %d B declared as %d B allocated %d B", len(body), maxFleetBodyBytes, b)
	if limit := 4 * uint64(len(body)); b > limit {
		t.Fatalf("reading %d B declared as %d B allocated %d B, want at most %d", len(body), maxFleetBodyBytes, b, limit)
	}
}

// TestPutBufDropsLargeBuffers pins the pool's size cap: a buffer over
// maxPooledBuf is never handed out again.
func TestPutBufDropsLargeBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	for i := 0; i < 64; i++ {
		if b := getBuf(); cap(*b) > maxPooledBuf {
			t.Fatalf("pool returned a %d-byte buffer, over its %d-byte cap", cap(*b), maxPooledBuf)
		}
	}
}

// lateCloseTransport sends each request from a second reader taken
// through GetBody, and closes the request's own body only after
// RoundTrip has returned, as http.Client's transports may. Before closing
// it rereads that body and requires it unchanged: a request buffer handed
// back to the pool when Do returned would by then hold another request.
type lateCloseTransport struct {
	t    *testing.T
	next http.RoundTripper
	wg   sync.WaitGroup
}

func (lt *lateCloseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, ok := req.Body.(io.ReadSeekCloser)
	if !ok {
		lt.t.Errorf("request body %T cannot be reread", req.Body)
		return nil, fmt.Errorf("unseekable body")
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	sent, err := io.ReadAll(rc)
	_ = rc.Close() // the reader's only duty here is to release the buffer
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(sent))
	resp, err := lt.next.RoundTrip(out)
	lt.wg.Add(1)
	go func() {
		defer lt.wg.Done()
		time.Sleep(time.Millisecond)
		if _, err := body.Seek(0, io.SeekStart); err != nil {
			lt.t.Errorf("rewind request body: %v", err)
		}
		again, err := io.ReadAll(body)
		if err != nil || !bytes.Equal(again, sent) {
			lt.t.Errorf("request body changed after Do returned (%d bytes, want %d; %v)", len(again), len(sent), err)
		}
		_ = body.Close() // releases the buffer to the pool
	}()
	return resp, err
}

// TestFleetClientBufferHammer runs concurrent clients, some sending
// batches whose buffers outgrow the pool's cap, through a transport that
// closes request bodies late. Every result must match its own request,
// and under -race no pooled buffer may be shared.
func TestFleetClientBufferHammer(t *testing.T) {
	srv, _ := startFleetCloud(t, 8)
	const clients, rounds = 6, 12
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c := login(t, srv, "gateway", "s3cret")
		lt := &lateCloseTransport{t: t, next: http.DefaultTransport}
		c.http.Transport = lt
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			defer lt.wg.Wait()
			for r := 0; r < rounds; r++ {
				n := 16 + 8*g + r
				if g == 0 && r%4 == 0 {
					n = 20000 // over 1 MiB encoded: its buffers are not pooled
				}
				items := make([]FleetBatchItem, n)
				for i := range items {
					op := "light.get_state"
					if (i+g+r)%3 == 0 {
						op = "no.such_op"
					}
					items[i] = FleetItem(fmt.Sprintf("home-%02d", (i+g)%8), op, "lamp-1", nil)
				}
				results, err := c.FleetAuthorize(items)
				if err != nil || len(results) != n {
					t.Errorf("client %d round %d: %d results, %v", g, r, len(results), err)
					return
				}
				for i, res := range results {
					if bad := items[i].Op == "no.such_op"; bad != (res.Error != "") || bad == res.Allowed {
						t.Errorf("client %d round %d item %d (%s) = %+v", g, r, i, items[i].Op, res)
						return
					}
				}
			}
		}(g, c)
	}
	wg.Wait()
}

// TestFleetWireAllocs gates the codec's allocations: encoding a request
// without args or a response costs O(1) allocations whatever the batch
// size, decoding a request no more than encoding/json, and decoding a
// response at most one per non-empty string plus the result slice's
// growth.
func TestFleetWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	items, results, reqBody, respBody := wireBodies(t)
	out := batchResults(results)
	for _, n := range []int{16, len(items)} {
		buf := make([]byte, 0, 2*len(reqBody))
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := appendAuthorizeRequest(buf, items[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("encoding a %d-item request allocates %.1f/op, want at most 1", n, allocs)
		}
		allocs = testing.AllocsPerRun(50, func() { appendAuthorizeResponse(buf, out[:n]) })
		if allocs > 1 {
			t.Errorf("encoding a %d-result response allocates %.1f/op, want at most 1", n, allocs)
		}
	}

	codec := testing.AllocsPerRun(20, func() {
		var req fleetAuthorizeRequest
		if err := req.unmarshal(reqBody); err != nil {
			t.Fatal(err)
		}
	})
	reference := testing.AllocsPerRun(20, func() {
		var req wireRequest
		if err := refDecode(reqBody, &req); err != nil {
			t.Fatal(err)
		}
	})
	if codec > reference {
		t.Errorf("decoding a request allocates %.0f/op, more than encoding/json's %.0f", codec, reference)
	}

	strs := 0
	for _, r := range results {
		for _, s := range []string{r.Model, r.Reason, r.Error} {
			if s != "" {
				strs++
			}
		}
	}
	limit := float64(strs + bits.Len(uint(len(results))))
	allocs := testing.AllocsPerRun(20, func() {
		var resp fleetAuthorizeResponse
		if err := resp.unmarshal(respBody); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("decoding a response allocates %.0f/op, want at most %.0f (%d strings)", allocs, limit, strs)
	}
}

// BenchmarkFleetWire* time the envelope codec on the bulk_mixed-shaped
// fixture; BenchmarkFleetWire*Reference time encoding/json on the same
// bodies, the way the endpoints used it before.

func BenchmarkFleetWireRequestDecode(b *testing.B) {
	_, _, body, _ := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var req fleetAuthorizeRequest
		if err := req.unmarshal(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireRequestDecodeReference(b *testing.B) {
	_, _, body, _ := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var req wireRequest
		if err := refDecode(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireRequestEncode(b *testing.B) {
	items, _, body, _ := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	buf := make([]byte, 0, len(body))
	for i := 0; i < b.N; i++ {
		if _, err := appendAuthorizeRequest(buf, items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireRequestEncodeReference(b *testing.B) {
	items, _, body, _ := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(wireRequest{Items: items}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireResponseDecode(b *testing.B) {
	_, _, _, body := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var resp fleetAuthorizeResponse
		if err := resp.unmarshal(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireResponseDecodeReference(b *testing.B) {
	_, _, _, body := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var resp fleetAuthorizeResponse
		if err := refDecode(body, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWireResponseEncode(b *testing.B) {
	_, results, _, body := wireBodies(b)
	out := batchResults(results)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	buf := make([]byte, 0, len(body))
	for i := 0; i < b.N; i++ {
		appendAuthorizeResponse(buf, out)
	}
}

func BenchmarkFleetWireResponseEncodeReference(b *testing.B) {
	_, results, _, body := wireBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(fleetAuthorizeResponse{Results: results}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetOverCountBodyBounded: a body with far more items or pushes than
// maxFleetBatch is rejected with 400, and decoding stops one element past
// the cap, so the request allocates the body buffer and the cap's worth of
// decoded elements (about 34 MB here), not one decoded element per array
// entry (over 100 times the body's size for this 3 MiB body).
func TestFleetOverCountBodyBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, _ := startFleetCloud(t, 1)
	c := login(t, srv, "gateway", "s3cret")
	const entries = 1 << 20
	for _, tc := range []struct {
		name, path, field, want string
		handler                 http.HandlerFunc
	}{
		{"authorize", "/v1/fleet/authorize", "items", fmt.Sprintf("batch exceeds %d items", maxFleetBatch), srv.handleFleetAuthorize},
		{"context", "/v1/fleet/context", "pushes", fmt.Sprintf("batch exceeds %d pushes", maxFleetBatch), srv.handleFleetContext},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"` + tc.field + `":[` + strings.Repeat(`{},`, entries-1) + `{}]}`
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rec := postDeclaringLength(c, tc.handler, tc.path, body, int64(len(body)))
			runtime.ReadMemStats(&after)
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest || eb.Error != tc.want {
				t.Fatalf("over-count body = HTTP %d %q, want 400 %q", rec.Code, rec.Body.String(), tc.want)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d B body allocated %d B", len(body), alloc)
			const limit = 48 << 20
			if alloc > limit {
				t.Fatalf("%d B over-count body allocated %d B, want at most %d", len(body), alloc, limit)
			}
		})
	}
}
