package cloud

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// statusItems returns n status reads spread over 64 homes.
func statusItems(n int) []FleetBatchItem {
	items := make([]FleetBatchItem, n)
	for i := range items {
		items[i] = FleetItem(fmt.Sprintf("home-%02d", i%64), "light.get_state", "lamp-1", nil)
	}
	return items
}

// TestClientFleetAuthorizeBytes bounds what a round trip of 256 status
// items allocates per item, client and stub handler together, against a
// handler that serves a canned response without allocating per item.
// With a fresh copy buffer per request body, the results grown by
// doubling and every string copied it was about 270 B per item; with the
// pooled copy buffer, results sized once and interned strings it is about
// 95, 56 of them the result slice the caller keeps. Undoing any one of
// the three adds 45 B or more.
func TestClientFleetAuthorizeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const requests, n = 200, 256
	results := make([]FleetResult, n)
	for i := range results {
		results[i] = FleetResult{Allowed: true, Reason: "light.get_state is not a sensitive instruction"}
	}
	canned := appendAuthorizeResponse(nil, batchResults(results))
	drain := make([]byte, 64<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := r.Body.Read(drain); err != nil {
				break
			}
		}
		_, _ = w.Write(canned) // a failed write fails the client's call
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	items := statusItems(n)
	authorize := func() {
		got, err := c.FleetAuthorize(items)
		if err != nil || len(got) != n || got[n-1] != results[n-1] {
			t.Fatalf("FleetAuthorize = %d results, %v", len(got), err)
		}
	}
	for i := 0; i < 5; i++ {
		authorize()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		authorize()
	}
	runtime.ReadMemStats(&after)
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / (requests * n)
	t.Logf("%.0f B allocated per status item", perItem)
	const limit = 120
	if perItem > limit {
		t.Fatalf("a status item's round trip allocates %.0f B, want at most %d", perItem, limit)
	}
}

// TestClientInternBounded: a server that answers with ten times the
// intern table's cap of distinct reasons gets every one back as it sent
// it, while the table stops growing at its cap. A string served twice
// while the table had room comes back as the table's one copy; no string
// aliases the pooled response buffer, which later responses overwrite.
func TestClientInternBounded(t *testing.T) {
	reason := func(i int) string { return fmt.Sprintf("reason %06d", i) }
	var round atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(round.Add(1) - 1)
		results := make([]FleetResult, internCap)
		for i := range results {
			results[i].Reason = reason(n%10*internCap + i)
		}
		_, _ = w.Write(appendAuthorizeResponse(nil, batchResults(results))) // a failed write fails the client's call
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	items := statusItems(internCap)
	var all [][]FleetResult
	for r := 0; r < 11; r++ { // rounds 0 and 10 serve the same reasons
		got, err := c.FleetAuthorize(items)
		if err != nil || len(got) != internCap {
			t.Fatalf("round %d: %d results, %v", r, len(got), err)
		}
		all = append(all, got)
	}
	for r, got := range all {
		for i, res := range got {
			if want := reason(r%10*internCap + i); res.Reason != want {
				t.Fatalf("round %d result %d: reason %q, want %q", r, i, res.Reason, want)
			}
		}
	}
	if n := len(*c.strs.m.Load()); n != internCap {
		t.Fatalf("intern table holds %d strings, want its cap %d", n, internCap)
	}
	for i := range all[0] {
		if unsafe.StringData(all[0][i].Reason) != unsafe.StringData(all[10][i].Reason) {
			t.Fatalf("result %d: a reason served twice was not interned", i)
		}
	}
}

// TestInternTableFillIsLinear: filling the intern table to its cap, each
// string looked up twice, publishes a new copy of the map only as often
// as the strings waiting for one, plus the lookups they served, pass the
// published map's size. So the bytes the fill allocates grow linearly in
// the cap; a table that copied its map for every new string allocated
// about 4096²/2 entries' worth, some hundreds of MB.
func TestInternTableFillIsLinear(t *testing.T) {
	keys := make([][]byte, internCap)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("reason %06d", i))
	}
	var tab internTable
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		tab.intern(k)
		tab.intern(k)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<20 {
		t.Fatalf("filling the table to %d strings allocated %d B, want at most 4 MiB", internCap, b)
	}
	if n := len(*tab.m.Load()); n != internCap {
		t.Fatalf("published table holds %d strings, want %d", n, internCap)
	}
	for _, k := range keys {
		s := tab.intern(k)
		if again := tab.intern(k); s != string(k) || unsafe.StringData(again) != unsafe.StringData(s) {
			t.Fatalf("intern(%q) = %q, then a different copy", k, s)
		}
	}
}

// TestClientBodyRoundTrip: a request body arrives byte for byte at sizes
// around the transport's 4 KiB write buffer and the 32 KiB copy buffer,
// sent once and sent again through GetBody when a 307 redirect makes the
// client resend it.
func TestClientBodyRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var redirected [][]byte // the bodies /redirect got
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		switch {
		case err != nil:
			w.WriteHeader(http.StatusBadRequest)
		case r.URL.Path == "/redirect":
			mu.Lock()
			redirected = append(redirected, body)
			mu.Unlock()
			http.Redirect(w, r, "/echo", http.StatusTemporaryRedirect)
		default:
			_, _ = w.Write(body) // a failed write fails the client's call
		}
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 4<<10 - 1, 4 << 10, 4<<10 + 1, 32<<10 - 1, 32 << 10, 32<<10 + 1, 1 << 20} {
		want := make([]byte, n)
		rng.Read(want)
		for _, path := range []string{"/echo", "/redirect"} {
			var got []byte
			err := c.postFleet(path,
				func(b []byte) ([]byte, error) { return append(b, want...), nil },
				func(b []byte) error { got = bytes.Clone(b); return nil })
			if err != nil {
				t.Fatalf("%s %d B: %v", path, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %d B: the server got %d B, not the bytes sent", path, n, len(got))
			}
		}
		mu.Lock()
		first := redirected[len(redirected)-1]
		mu.Unlock()
		if !bytes.Equal(first, want) {
			t.Fatalf("/redirect %d B: the first send arrived as %d B, not the bytes sent", n, len(first))
		}
	}
}

// TestClientConcurrentFleetAuthorize runs concurrent FleetAuthorize calls
// on one Client against the fleet cloud: every result must match its own
// item, and under -race the shared intern table, transport and pooled
// buffers must show no race.
func TestClientConcurrentFleetAuthorize(t *testing.T) {
	srv, _ := startFleetCloud(t, 8)
	c := login(t, srv, "gateway", "s3cret")
	const workers, rounds = 4, 15
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				items := make([]FleetBatchItem, 8+g*5+r)
				for i := range items {
					op := "light.get_state"
					if (i+g+r)%4 == 0 {
						op = "no.such_op"
					}
					items[i] = FleetItem(fmt.Sprintf("home-%02d", (i+r)%8), op, "lamp-1", nil)
				}
				results, err := c.FleetAuthorize(items)
				if err != nil || len(results) != len(items) {
					t.Errorf("worker %d round %d: %d results, %v", g, r, len(results), err)
					return
				}
				for i, res := range results {
					ok := res.Allowed && res.Error == "" && res.Reason == "light.get_state is not a sensitive instruction"
					if bad := items[i].Op == "no.such_op"; bad == ok || bad && res.Error == "" {
						t.Errorf("worker %d round %d item %d (%s) = %+v", g, r, i, items[i].Op, res)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
