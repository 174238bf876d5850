package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/trust"
)

// vocabularyCloud is a fleet cloud with metrics: homes home-00..02
// without a trust engine and "trusted" with one, all bound to the
// gateway account.
type vocabularyCloud struct {
	srv     *Server
	c       *Client
	trusted *trust.Engine
}

func startVocabularyCloud(t *testing.T) *vocabularyCloud {
	t.Helper()
	fl := fleetForCloudTest(t, 3)
	v := &vocabularyCloud{trusted: trustEngineForCloud(t, "push")}
	if _, err := fl.AddHome(fleet.HomeConfig{ID: "trusted", Trust: v.trusted}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Users:    map[string]string{"gateway": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  func(instr.Instruction) error { return nil },
		Fleet:    fl,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for _, id := range []string{"home-00", "home-01", "home-02", "trusted"} {
		if err := srv.BindHome(id, "gateway"); err != nil {
			t.Fatal(err)
		}
	}
	v.srv, v.c = srv, login(t, srv, "gateway", "s3cret")
	return v
}

// post sends a raw JSON body to a fleet endpoint and decodes the 200
// response into out: a scene naming an unknown feature has no Snapshot
// to encode it from, so these bodies are written by hand.
func (v *vocabularyCloud) post(t *testing.T, path, body string, out any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, v.srv.URL()+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header["Authorization"] = v.c.auth
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = HTTP %d %s, %v", path, resp.StatusCode, data, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("POST %s: %v in %s", path, err, data)
	}
}

// rejects reads the unknown-feature counter of endpoint ep from /metrics.
func (v *vocabularyCloud) rejects(t *testing.T, ep string) string {
	t.Helper()
	resp, err := http.Get(v.srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := metricVocabularyRejects + `{endpoint="` + ep + `"} `
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	t.Fatalf("/metrics has no %s series:\n%s", prefix, data)
	return ""
}

// legalWindowScene encodes a legal window scene stamped at.
func legalWindowScene(t *testing.T, at time.Time) string {
	t.Helper()
	s, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	s.At = at
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// withUnknown adds names outside the vocabulary to an encoded scene.
func withUnknown(scene string, names ...string) string {
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%q:1,", n)
	}
	return strings.Replace(scene, `"values":{`, `"values":{`+b.String(), 1)
}

// TestFleetAuthorizeUnknownFeature: an item whose scene names a feature
// outside the vocabulary gets its own error and is counted, its scene is
// not pushed, and the other items in the same body are judged.
func TestFleetAuthorizeUnknownFeature(t *testing.T) {
	v := startVocabularyCloud(t)
	at := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	scene := legalWindowScene(t, at)
	var resp fleetAuthorizeResponse
	v.post(t, "/v1/fleet/authorize", `{"items":[`+
		`{"home":"home-00","op":"window.open","device_id":"win-1","context":`+withUnknown(scene, "ghost_sensor")+`},`+
		`{"home":"home-01","op":"window.open","device_id":"win-1","context":`+scene+`},`+
		`{"home":"home-02","op":"light.get_state","device_id":"lamp-1"}]}`, &resp)
	rs := resp.Results
	if len(rs) != 3 || rs[0].Error != errVocabulary || rs[0].Allowed {
		t.Fatalf("results = %+v, want item 0 rejected with %q", rs, errVocabulary)
	}
	if !rs[1].Allowed || rs[1].Error != "" || !rs[2].Allowed || rs[2].Error != "" {
		t.Fatalf("items beside the rejected one = %+v, want both allowed", rs[1:])
	}
	if got := v.rejects(t, "authorize"); got != "1" {
		t.Fatalf("authorize unknown-feature rejects = %s, want 1", got)
	}
	// The rejected scene was not pushed: home-00 has no context, so a
	// sensitive instruction there fails closed.
	v.post(t, "/v1/fleet/authorize", `{"items":[{"home":"home-00","op":"window.open","device_id":"win-1"}]}`, &resp)
	if len(resp.Results) != 1 || resp.Results[0].Allowed || resp.Results[0].Reason != core.ReasonMissing {
		t.Fatalf("home-00 after a rejected scene = %+v, want %q", resp.Results, core.ReasonMissing)
	}
}

// TestFleetContextUnknownFeature: a push whose scene names a feature
// outside the vocabulary is rejected by index and counted, and the other
// pushes are accepted.
func TestFleetContextUnknownFeature(t *testing.T) {
	v := startVocabularyCloud(t)
	scene := legalWindowScene(t, time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC))
	var resp fleetContextResponse
	v.post(t, "/v1/fleet/context", `{"pushes":[`+
		`{"home":"home-00","context":`+scene+`},`+
		`{"home":"home-01","context":`+withUnknown(scene, "ghost_sensor", "another")+`},`+
		`{"home":"home-02","context":`+scene+`}]}`, &resp)
	want := []FleetPushError{{Index: 1, Home: "home-01", Error: errVocabulary}}
	if resp.Accepted != 2 || fmt.Sprint(resp.Errors) != fmt.Sprint(want) {
		t.Fatalf("push response = %+v, want 2 accepted and %+v", resp, want)
	}
	if got := v.rejects(t, "context"); got != "1" {
		t.Fatalf("context unknown-feature rejects = %s, want 1", got)
	}
	if got := v.rejects(t, "authorize"); got != "0" {
		t.Fatalf("authorize unknown-feature rejects = %s, want 0", got)
	}
}

// TestFleetUnknownFeatureGrowthIsBounded: a tenant cannot grow its
// home's state one new feature name at a time. 2,000 scenes of 50
// never-seen names each, pushed to one trusted home through both fleet
// endpoints, are all rejected, never reach the trust engine, and leave
// the live heap where it was. When the fleet stored every name, the trust
// engine kept state for each and the heap grew by 13.1 MB.
func TestFleetUnknownFeatureGrowthIsBounded(t *testing.T) {
	v := startVocabularyCloud(t)
	const requests, perRequest, names = 20, 100, 50
	t0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	scene := func(k int) string {
		unknown := make([]string, names)
		for i := range unknown {
			unknown[i] = fmt.Sprintf("never_seen_%06d", k*names+i)
		}
		return withUnknown(legalWindowScene(t, t0.Add(time.Duration(k)*time.Second)), unknown...)
	}
	bodies := make([]string, requests)
	for r := range bodies {
		var b bytes.Buffer
		authorize := r%2 == 1
		if authorize {
			b.WriteString(`{"items":[`)
		} else {
			b.WriteString(`{"pushes":[`)
		}
		for i := 0; i < perRequest; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if authorize {
				fmt.Fprintf(&b, `{"home":"trusted","op":"window.open","device_id":"win-1","context":%s}`, scene(r*perRequest+i))
			} else {
				fmt.Fprintf(&b, `{"home":"trusted","context":%s}`, scene(r*perRequest+i))
			}
		}
		b.WriteString(`]}`)
		bodies[r] = b.String()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rejected := 0
	for r, body := range bodies {
		if r%2 == 1 {
			var resp fleetAuthorizeResponse
			v.post(t, "/v1/fleet/authorize", body, &resp)
			for _, res := range resp.Results {
				if res.Error == errVocabulary {
					rejected++
				}
			}
		} else {
			var resp fleetContextResponse
			v.post(t, "/v1/fleet/context", body, &resp)
			for _, e := range resp.Errors {
				if e.Error == errVocabulary {
					rejected++
				}
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d B over %d pushes of %d unknown names", grown, requests*perRequest, names)
	if grown > 2<<20 {
		t.Fatalf("live heap grew %d B over %d pushes of %d unknown names, want at most 2 MiB", grown, requests*perRequest, names)
	}
	if rejected != requests*perRequest {
		t.Fatalf("%d of %d scenes rejected for unknown features, want all", rejected, requests*perRequest)
	}
	if obs := v.trusted.Report()[0].Observations; obs != 0 {
		t.Fatalf("trust engine observed %d rejected scenes, want 0", obs)
	}
	for _, ep := range []string{"authorize", "context"} {
		if got, want := v.rejects(t, ep), fmt.Sprint(requests/2*perRequest); got != want {
			t.Fatalf("%s unknown-feature rejects = %s, want %s", ep, got, want)
		}
	}
}
