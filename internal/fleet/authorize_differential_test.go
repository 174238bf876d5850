package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
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
)

// The per-item answers of /v1/fleet/authorize that never reach the fleet,
// as the server words them on the wire.
const (
	errHomeNotBound   = "home not bound to this account"
	errItemTooLarge   = "item exceeds 4096 bytes"
	errUnknownFeature = "context holds a feature or value outside the sensor vocabulary"
)

// diffItem is one item of the differential stream: its wire JSON and what
// a gateway-side replay needs to judge it without the server.
type diffItem struct {
	json       []byte
	home       string
	op, device string
	args       map[string]any
	ctx        *sensor.Snapshot
	// reject is the server's answer for an item the fleet never sees:
	// unowned, oversized or naming an unknown feature.
	reject string
}

// diffKinds counts the stream's items by kind, so the test can require
// that each kind occurred.
type diffKinds struct {
	unowned, oversized, unknownFeature, unknownOp, args, nullContext, scene int
}

// diffStream draws batches of 256 items on homes home-00.. (homes of
// them), the account's unregistered home "ghost", and homes no account
// owns. It mixes sensitive instructions carrying legal or attack scenes,
// status reads, null and absent contexts, args-bearing items, unknown
// opcodes, oversized items and scenes naming an unknown feature.
func diffStream(t *testing.T, rng *rand.Rand, batches, homes int) ([][]diffItem, diffKinds) {
	t.Helper()
	ops := map[dataset.Model]string{
		dataset.ModelWindow: "window.open", dataset.ModelAircon: "aircon.on", dataset.ModelLight: "light.on",
		dataset.ModelCurtain: "curtain.open", dataset.ModelTV: "tv.on", dataset.ModelKitchen: "cooker.start",
	}
	models := dataset.Models()
	var kinds diffKinds
	stream := make([][]diffItem, batches)
	for b := range stream {
		stream[b] = make([]diffItem, 256)
		for i := range stream[b] {
			it := &stream[b][i]
			it.home = fmt.Sprintf("home-%02d", rng.Intn(homes))
			switch r := rng.Float64(); {
			case r < 0.04:
				it.home, it.reject = fmt.Sprintf("stranger-%d", rng.Intn(4)), errHomeNotBound
				kinds.unowned++
			case r < 0.06:
				it.home = "ghost"
			}
			m := models[rng.Intn(len(models))]
			it.op, it.device = ops[m], "dev-1"
			if rng.Float64() < 0.3 {
				it.op, it.device = "light.get_state", "lamp-1"
			}
			if rng.Float64() < 0.04 {
				it.op = "no.such_op"
				kinds.unknownOp++
			}
			if rng.Float64() < 0.2 {
				it.args = map[string]any{"level": float64(rng.Intn(100)), "mode": "eco"}
				kinds.args++
			}
			var scene []byte
			switch r := rng.Float64(); {
			case r < 0.1:
				scene = []byte("null")
				kinds.nullContext++
			case r < 0.65:
				snap, err := dataset.LegalScene(m, rng)
				if rng.Float64() < 0.4 {
					snap, err = dataset.AttackScene(m, rng)
				}
				if err != nil {
					t.Fatal(err)
				}
				it.ctx = &snap
				if scene, err = snap.MarshalJSON(); err != nil {
					t.Fatal(err)
				}
				kinds.scene++
			}
			if it.reject == "" && rng.Float64() < 0.04 {
				scene, it.ctx, it.reject = []byte(`{"values":{"smoke":true,"ghost":1}}`), nil, errUnknownFeature
				kinds.unknownFeature++
			}
			oversized := it.reject == "" && rng.Float64() < 0.04
			if oversized {
				it.reject = errItemTooLarge
				kinds.oversized++
			}
			it.json = appendDiffItem(it, scene, oversized)
		}
	}
	return stream, kinds
}

// appendDiffItem encodes it with its scene's JSON; an oversized item
// carries padding in its args or as an unknown member.
func appendDiffItem(it *diffItem, scene []byte, oversized bool) []byte {
	str := func(s string) []byte {
		b, _ := json.Marshal(s)
		return b
	}
	b := fmt.Appendf(nil, `{"home":%s,"op":%s,"device_id":%s`, str(it.home), str(it.op), str(it.device))
	pad := strings.Repeat("x", 4096)
	if it.args != nil {
		args := it.args
		if oversized {
			args = map[string]any{"pad": pad}
		}
		enc, _ := json.Marshal(args)
		b = append(append(b, `,"args":`...), enc...)
	} else if oversized {
		b = append(append(b, `,"pad":`...), str(pad)...)
	}
	if scene != nil {
		b = append(append(b, `,"context":`...), scene...)
	}
	return append(b, '}')
}

// diffFleet is one fleet of the differential: homes home-00.. on a fixed
// clock, judging against the shared registry.
func diffFleet(t *testing.T, det *core.Detector, reg *fleet.ModelRegistry, homes int) *fleet.Fleet {
	t.Helper()
	at := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	f, err := fleet.New(fleet.Config{Detector: det, Models: reg, Shards: 4, Now: func() time.Time { return at }})
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

// replayBatch answers a batch the way a gateway-side replay does, without
// the server: the server's own rejections first, then Registry.Build on
// each surviving item, args included, and one Fleet.AuthorizeBatch over
// the items built. It returns the response body json.Encoder writes.
func replayBatch(t *testing.T, f *fleet.Fleet, reg *instr.Registry, batch []diffItem) []byte {
	t.Helper()
	results := make([]cloud.FleetResult, len(batch))
	var items []fleet.BatchItem
	var idxs []int
	for i, it := range batch {
		if it.reject != "" {
			results[i].Error = it.reject
			continue
		}
		in, err := reg.Build(it.op, it.device, instr.OriginUser, it.args)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		items = append(items, fleet.BatchItem{Home: it.home, In: in, Context: it.ctx})
		idxs = append(idxs, i)
	}
	out, err := f.AuthorizeBatch(context.Background(), items, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range out {
		d := res.Decision
		results[idxs[k]] = cloud.FleetResult{Allowed: d.Allowed, Sensitive: d.Sensitive, Model: string(d.Model), Reason: d.Reason, Error: res.Err}
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(struct {
		Results []cloud.FleetResult `json:"results"`
	}{results}); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// post sends body to the server at path under session and returns the
// response body, failing unless the answer is 200.
func post(t *testing.T, url, path, session string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.Header.Set("Authorization", "Session "+session)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = HTTP %d %q, %v", path, resp.StatusCode, got, err)
	}
	return got
}

// TestFleetAuthorizeHandlerDifferential holds /v1/fleet/authorize, which
// decodes straight into the fleet's batch items and encodes the fleet's
// results, to the gateway-side path over a twin fleet: Registry.Build with
// the item's args, then Fleet.AuthorizeBatch over the items the server
// does not reject itself. On one seeded mixed stream of 256-item batches
// the response bytes must be identical, and so must every home's decision
// ring.
func TestFleetAuthorizeHandlerDifferential(t *testing.T) {
	const homes, batches = 48, 6
	models, det := trainedModels(t)
	served, twin := diffFleet(t, det, models, homes), diffFleet(t, det, models, homes)
	reg := instr.BuiltinRegistry()
	srv, session := diffServer(t, served, reg, homes)

	stream, kinds := diffStream(t, rand.New(rand.NewSource(27)), batches, homes)
	if kinds.unowned == 0 || kinds.oversized == 0 || kinds.unknownFeature == 0 || kinds.unknownOp == 0 ||
		kinds.args == 0 || kinds.nullContext == 0 || kinds.scene == 0 {
		t.Fatalf("the stream lacks a kind of item: %+v", kinds)
	}
	t.Logf("stream of %d items: %+v", batches*256, kinds)
	for b, batch := range stream {
		got := post(t, srv.URL(), "/v1/fleet/authorize", session, batchBody(batch))
		if want := replayBatch(t, twin, reg, batch); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: response differs from the replay's\n server %s\n replay %s", b, got, want)
		}
	}
	logged, incomplete := 0, 0
	for i := 0; i < homes; i++ {
		id := fmt.Sprintf("home-%02d", i)
		hs, _ := served.Home(id)
		ht, _ := twin.Home(id)
		got, want := fleet.HomeLog(hs), fleet.HomeLog(ht)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("home %s: decision ring differs from the replay's:\n server %+v\n replay %+v", id, got, want)
		}
		logged += len(got)
		for _, e := range got {
			if e.Decision.Reason == core.ReasonMissing && strings.Contains(e.Decision.Explain(), "missing feature") {
				incomplete++
			}
		}
	}
	if logged == 0 {
		t.Fatal("no home logged a decision")
	}
	// A sensitive item judged on another model's scene lacks a feature its
	// model reads: it is answered, failed closed, not an item error.
	if incomplete == 0 {
		t.Fatal("no home logged a sensitive instruction failed closed on an incomplete scene")
	}
}

// batchBody is the authorize request body of batch.
func batchBody(batch []diffItem) []byte {
	body := []byte(`{"items":[`)
	for i, it := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, it.json...)
	}
	return append(body, "]}"...)
}

// diffServer serves the fleet served, whose homes home-00.. (homes of
// them) and the unregistered "ghost" are bound to the account "gateway",
// and "stranger-0" to the account "other". It returns the server and a
// session of "gateway".
func diffServer(t *testing.T, served *fleet.Fleet, reg *instr.Registry, homes int) (*cloud.Server, string) {
	t.Helper()
	srv, err := cloud.NewServer(cloud.Config{
		Users:    map[string]string{"gateway": "s3cret", "other": "other-secret"},
		Registry: reg,
		Forward:  func(instr.Instruction) error { return nil },
		Fleet:    served,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for i := 0; i < homes; i++ {
		if err := srv.BindHome(fmt.Sprintf("home-%02d", i), "gateway"); err != nil {
			t.Fatal(err)
		}
	}
	for _, bind := range [][2]string{{"ghost", "gateway"}, {"stranger-0", "other"}} {
		if err := srv.BindHome(bind[0], bind[1]); err != nil {
			t.Fatal(err)
		}
	}
	var login struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(post(t, srv.URL(), "/v1/login", "", []byte(`{"user":"gateway","secret":"s3cret"}`)), &login); err != nil {
		t.Fatal(err)
	}
	return srv, login.Session
}

// TestFleetContextFreePushFailsClosed: a push with no context is a
// heartbeat, and window.open judged on the empty scene it leaves is
// answered over /v1/fleet/authorize as a sensitive instruction failed
// closed for missing context, not an item error. The decision is in the
// home's ring, explained by the feature the scene lacks, and counted as
// fail_closed.
func TestFleetContextFreePushFailsClosed(t *testing.T) {
	models, det := trainedModels(t)
	mreg := obs.NewRegistry()
	fl, err := fleet.New(fleet.Config{Detector: det, Models: models, Shards: 1, Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	h, err := fl.AddHome(fleet.HomeConfig{ID: "h"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloud.NewServer(cloud.Config{
		Users:    map[string]string{"gateway": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  func(instr.Instruction) error { return nil },
		Fleet:    fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindHome("h", "gateway"); err != nil {
		t.Fatal(err)
	}
	var login struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(post(t, srv.URL(), "/v1/login", "", []byte(`{"user":"gateway","secret":"s3cret"}`)), &login); err != nil {
		t.Fatal(err)
	}
	post(t, srv.URL(), "/v1/fleet/context", login.Session, []byte(`{"pushes":[{"home":"h"}]}`))
	body := post(t, srv.URL(), "/v1/fleet/authorize", login.Session,
		[]byte(`{"items":[{"home":"h","op":"window.open","device_id":"win-1"}]}`))
	var resp struct {
		Results []cloud.FleetResult `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("response %s, want one result", body)
	}
	if r := resp.Results[0]; r.Allowed || !r.Sensitive || r.Error != "" || r.Reason != core.ReasonMissing {
		t.Fatalf("result %+v, want a sensitive instruction failed closed as %q", r, core.ReasonMissing)
	}
	log := fleet.HomeLog(h)
	if len(log) != 1 {
		t.Fatalf("home ring holds %d decisions, want 1", len(log))
	}
	if d := log[0].Decision; d.Outcome != core.OutcomeFailClosed || d.Reason != core.ReasonMissing ||
		!strings.Contains(d.Explain(), `missing feature "`) {
		t.Fatalf("logged decision %+v explained %q, want a fail-closed decision naming the missing feature", d, d.Explain())
	}
	var text strings.Builder
	if err := mreg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := `iotsid_fleet_decisions_total{shard="0",outcome="fail_closed"} 1`; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics exposition lacks %q:\n%s", want, text.String())
	}
}
