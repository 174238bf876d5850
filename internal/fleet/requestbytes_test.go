package fleet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
)

// TestFleetServedStateKeepsNoRequestBytes: what /v1/fleet/authorize leaves
// in a home, the op and device strings of its decision ring and the view
// its pushed scenes were copied into, holds nothing of the request body,
// whose pooled buffer serves the next request, nor of the request's own
// copy of its device IDs. A first batch wraps every home's ring with
// device IDs new to it and ends with a read of lamp-1 on each; then one
// batch mixes scenes, reads of lamp-1, which each home's ring resolves,
// an unknown op, a bound but unregistered home and a device ID new to its
// home. Each is answered as the gateway-side replay over a twin fleet
// answers it. Then batches for a home the account is not bound to, whose
// device IDs are as long as the earlier ones but all '#', and bodies of
// the same length as the longest that are no JSON at all, are served, so
// the pooled buffers are overwritten; every home's ring and view must
// still equal the twin's, whose strings are the test's own.
func TestFleetServedStateKeepsNoRequestBytes(t *testing.T) {
	const homes = 16
	models, det := trainedModels(t)
	served, twin := diffFleet(t, det, models, homes), diffFleet(t, det, models, homes)
	reg := instr.BuiltinRegistry()
	srv, session := diffServer(t, served, reg, homes)
	authorize := func(batch []diffItem) []byte {
		t.Helper()
		body := batchBody(batch)
		got := post(t, srv.URL(), "/v1/fleet/authorize", session, body)
		if want := replayBatch(t, twin, reg, batch); !bytes.Equal(got, want) {
			t.Fatalf("response differs from the replay's\n server %s\n replay %s", got, want)
		}
		return body
	}
	item := func(home, op, device string) diffItem {
		it := diffItem{home: home, op: op, device: device}
		it.json = appendDiffItem(&it, nil, false)
		return it
	}

	filler := []diffItem{item("home-00", "window.open", "dev-1")}
	for i := len(filler); i < 1024; i++ {
		filler = append(filler, item(fmt.Sprintf("home-%02d", i%homes), "light.get_state", fmt.Sprintf("fill-%04d", i)))
	}
	for i := 0; i < homes; i++ {
		filler = append(filler, item(fmt.Sprintf("home-%02d", i), "light.get_state", "lamp-1"))
	}
	longest := authorize(filler)

	rng := rand.New(rand.NewSource(3))
	var batch []diffItem
	for i := 0; i < 64; i++ {
		it := item(fmt.Sprintf("home-%02d", i%homes), "light.get_state", "lamp-1")
		switch i % 8 {
		case 0, 1, 2:
			snap, err := dataset.LegalScene(dataset.ModelWindow, rng)
			if err != nil {
				t.Fatal(err)
			}
			it = diffItem{home: it.home, op: "window.open", device: "dev-1", ctx: &snap}
			scene, err := snap.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			it.json = appendDiffItem(&it, scene, false)
		case 3:
			it = item(it.home, "no.such_op", "dev-1") // unknown op
		case 4:
			it = item("ghost", "window.open", "dev-1") // bound, not registered
		case 5:
			it = item(it.home, "window.open", "new-dev") // new to the home: a copy
		}
		batch = append(batch, it)
	}
	authorize(batch)

	stranger := make([]diffItem, len(filler))
	for i, it := range filler {
		stranger[i] = item("stranger", it.op, strings.Repeat("#", len(it.device)))
	}
	for range 16 {
		if got := post(t, srv.URL(), "/v1/fleet/authorize", session, batchBody(stranger)); !bytes.Contains(got, []byte("home not bound")) {
			t.Fatalf("a batch for an unbound home = %s", got)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL()+"/v1/fleet/authorize", bytes.NewReader(bytes.Repeat([]byte{'#'}, len(longest))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Session "+session)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("a body of no JSON = HTTP %d, want %d", resp.StatusCode, http.StatusBadRequest)
		}
	}
	for i := 0; i < homes; i++ {
		id := fmt.Sprintf("home-%02d", i)
		hs, _ := served.Home(id)
		ht, _ := twin.Home(id)
		if got, want := fleet.HomeLog(hs), fleet.HomeLog(ht); !reflect.DeepEqual(got, want) {
			t.Fatalf("home %s: decision ring differs from the replay's after the buffers were reused:\n server %+v\n replay %+v", id, got, want)
		}
		gotView, gotOK := fleet.HomeScene(hs)
		wantView, wantOK := fleet.HomeScene(ht)
		if gotOK != wantOK || !reflect.DeepEqual(gotView, wantView) {
			t.Fatalf("home %s: view differs from the replay's after the buffers were reused:\n server %v\n replay %v", id, gotView, wantView)
		}
	}
}
