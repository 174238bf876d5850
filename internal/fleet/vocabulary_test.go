package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// errVocabulary is the server's per-item answer to a scene holding a
// feature or value outside the sensor vocabulary.
const errVocabulary = "context holds a feature or value outside the sensor vocabulary"

// outsideValues are values a window scene's features do not admit: a
// label outside its feature's domain, and a label under a bool feature.
var outsideValues = []struct{ feature, value string }{
	{"door_lock", `"ajar"`},
	{"outdoor_weather", `"hail"`},
	{"motion", `"locked"`},
}

// withValue encodes s with feature's value replaced by the raw JSON value.
func withValue(t *testing.T, s sensor.Snapshot, feature, value string) string {
	t.Helper()
	f, ok := sensor.ParseFeature(feature)
	if !ok {
		t.Fatalf("no feature %q", feature)
	}
	s = s.Clone()
	s.Delete(f)
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return strings.Replace(string(b), `"values":{`, `"values":{"`+feature+`":`+value+`,`, 1)
}

// vocabularyRun is what a home keeps of one run: its view's values, its
// trust engine's report and per-rule counters, and its decision ring.
type vocabularyRun struct {
	view    string
	trust   []trust.SourceTrust
	rules   string
	ring    []core.LogEntry
	results [][]cloud.FleetResult // the answers to the items both runs send
}

// TestFleetVocabularyLabelDomains: a scene that gives door_lock the label
// "ajar", outdoor_weather "hail" or motion the label "locked" is refused
// per item on /v1/fleet/authorize and per push on /v1/fleet/context, and
// counted on each endpoint. The values reach neither the home's view, nor
// its trust engine, nor a decision: the home's view, trust report, per-rule
// counts and decision ring, and the answers to the other items, are
// identical to a run without those items.
func TestFleetVocabularyLabelDomains(t *testing.T) {
	models, det := trainedModels(t)
	t0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	scene := func(seed int64, at time.Time) sensor.Snapshot {
		s, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		s.At = at
		return s
	}
	first, second, later := scene(61, t0), scene(62, t0.Add(10*time.Second)), scene(63, t0.Add(20*time.Second))

	run := func(outside bool) vocabularyRun {
		trustMetrics, srvMetrics := obs.NewRegistry(), obs.NewRegistry()
		eng, err := trust.NewEngine(trust.Config{Threshold: 0.5, Decay: 0.7, Metrics: trustMetrics},
			trust.SourceConfig{Name: "push", Required: true})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fleet.New(fleet.Config{Detector: det, Models: models, Shards: 2, Now: func() time.Time { return t0.Add(30 * time.Second) }})
		if err != nil {
			t.Fatal(err)
		}
		h, err := f.AddHome(fleet.HomeConfig{ID: "h", Trust: eng})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := cloud.NewServer(cloud.Config{
			Users:    map[string]string{"gateway": "s3cret"},
			Registry: instr.BuiltinRegistry(),
			Forward:  func(instr.Instruction) error { return nil },
			Fleet:    f,
			Metrics:  srvMetrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := srv.BindHome("h", "gateway"); err != nil {
			t.Fatal(err)
		}
		var login struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(post(t, srv.URL(), "/v1/login", "", []byte(`{"user":"gateway","secret":"s3cret"}`)), &login); err != nil {
			t.Fatal(err)
		}
		encode := func(s sensor.Snapshot) string {
			b, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}

		// Pushes: the first scene, then, in the outside run, one push per
		// outside value on a later scene, which the ingest rule would take.
		pushes := []string{`{"home":"h","context":` + encode(first) + `}`}
		if outside {
			for _, o := range outsideValues {
				pushes = append(pushes, `{"home":"h","context":`+withValue(t, later, o.feature, o.value)+`}`)
			}
		}
		var pushResp struct {
			Accepted int                    `json:"accepted"`
			Errors   []cloud.FleetPushError `json:"errors"`
		}
		if err := json.Unmarshal(post(t, srv.URL(), "/v1/fleet/context", login.Session, []byte(`{"pushes":[`+strings.Join(pushes, ",")+`]}`)), &pushResp); err != nil {
			t.Fatal(err)
		}
		if pushResp.Accepted != 1 || len(pushResp.Errors) != len(pushes)-1 {
			t.Fatalf("outside=%v: push response %+v, want 1 accepted and the rest refused", outside, pushResp)
		}
		for k, e := range pushResp.Errors {
			if e.Index != k+1 || e.Home != "h" || e.Error != errVocabulary {
				t.Fatalf("push error %d = %+v, want index %d refused with %q", k, e, k+1, errVocabulary)
			}
		}

		// Authorize batches: window.open judged on the pushed view, then on
		// an inline second scene, with the outside items before, between
		// and after the items both runs send.
		var r vocabularyRun
		refusedItems := 0
		for b, shared := range [][]string{
			{`{"home":"h","op":"window.open","device_id":"win-1"}`},
			{`{"home":"h","op":"window.open","device_id":"win-1","context":` + encode(second) + `}`,
				`{"home":"h","op":"light.get_state","device_id":"lamp-1"}`,
				`{"home":"h","op":"window.open","device_id":"win-1"}`},
		} {
			var items []string
			var keep []int
			for k, it := range shared {
				if outside {
					o := outsideValues[(b+k)%len(outsideValues)]
					items = append(items, `{"home":"h","op":"window.open","device_id":"win-1","context":`+withValue(t, later, o.feature, o.value)+`}`)
					refusedItems++
				}
				keep = append(keep, len(items))
				items = append(items, it)
			}
			var resp struct {
				Results []cloud.FleetResult `json:"results"`
			}
			if err := json.Unmarshal(post(t, srv.URL(), "/v1/fleet/authorize", login.Session, []byte(`{"items":[`+strings.Join(items, ",")+`]}`)), &resp); err != nil {
				t.Fatal(err)
			}
			var kept []cloud.FleetResult
			for i, res := range resp.Results {
				if len(keep) > 0 && keep[0] == i {
					kept, keep = append(kept, res), keep[1:]
				} else if res.Error != errVocabulary || res.Allowed {
					t.Fatalf("outside=%v: item %d = %+v, want refused with %q", outside, i, res, errVocabulary)
				}
			}
			r.results = append(r.results, kept)
		}

		var text bytes.Buffer
		if err := srvMetrics.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		for ep, n := range map[string]int{"authorize": refusedItems, "context": len(pushes) - 1} {
			series := fmt.Sprintf(`iotsid_cloud_fleet_vocabulary_rejects_total{endpoint=%q} %d`, ep, n)
			if !strings.Contains(text.String(), series+"\n") {
				t.Fatalf("outside=%v: /metrics lacks %s:\n%s", outside, series, text.String())
			}
		}

		view, ok := fleet.HomeScene(h)
		if !ok {
			t.Fatal("home h has no view")
		}
		r.view = encode(view)
		r.trust = eng.Report()
		text.Reset()
		if err := trustMetrics.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		r.rules = text.String()
		r.ring = fleet.HomeLog(h)
		return r
	}

	clean, refused := run(false), run(true)
	if len(clean.ring) == 0 || clean.trust[0].Observations == 0 {
		t.Fatalf("the clean run judged %d instructions and observed %d scenes, want some of each", len(clean.ring), clean.trust[0].Observations)
	}
	if refused.view != clean.view {
		t.Errorf("view = %s, want the clean run's %s", refused.view, clean.view)
	}
	if !reflect.DeepEqual(refused.trust, clean.trust) || refused.rules != clean.rules {
		t.Errorf("trust = %+v\n%s\nwant the clean run's %+v\n%s", refused.trust, refused.rules, clean.trust, clean.rules)
	}
	if !reflect.DeepEqual(refused.ring, clean.ring) {
		t.Errorf("decision ring = %+v, want the clean run's %+v", refused.ring, clean.ring)
	}
	if !reflect.DeepEqual(refused.results, clean.results) {
		t.Errorf("answers to the shared items = %+v, want the clean run's %+v", refused.results, clean.results)
	}
}
