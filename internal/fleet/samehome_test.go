package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// trainedModels trains the seeded memory the package's external tests
// judge against and returns its registry with the default detector.
func trainedModels(t *testing.T) (*fleet.ModelRegistry, *core.Detector) {
	t.Helper()
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	models, err := fleet.NewModelRegistry(mem)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	return models, det
}

// decisionKey is what a decision says, its rendered decision path
// included, so two decisions on scenes that differ in a value the tree
// tested differ in their keys.
func decisionKey(d core.Decision) string {
	return fmt.Sprintf("%t %t %v %s %q %q", d.Allowed, d.Sensitive, d.Outcome, d.Model, d.Reason, d.Explain())
}

// valuesKey is a scene's values without its time.
func valuesKey(s sensor.Snapshot) string {
	s.At = time.Time{}
	b, err := s.MarshalJSON()
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// TestFleetSameHomeConcurrentScenes: a home's view is rewritten in place,
// so on one home these run at once under the race detector: pushes of
// scenes of two widths, heartbeats, AuthorizeBatch calls whose items carry
// scenes of both widths or none, /v1/fleet/context posts, and reads of the
// view. Every decision must be the decision a twin fleet makes on one
// whole pushed scene, and every read of the view one whole scene, never a
// torn mix of two.
func TestFleetSameHomeConcurrentScenes(t *testing.T) {
	models, det := trainedModels(t)
	var scenes []sensor.Snapshot
	for i, m := range []dataset.Model{dataset.ModelWindow, dataset.ModelKitchen} {
		legal, err := dataset.LegalScene(m, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		attack, err := dataset.AttackScene(m, rand.New(rand.NewSource(int64(50+i))))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []sensor.Snapshot{legal, attack} {
			s.At = time.Time{} // stamped on receipt, so pushes race on the receive clock only
			scenes = append(scenes, s)
		}
	}
	if scenes[0].Len() == scenes[2].Len() {
		t.Fatalf("window and kitchen scenes both carry %d features, want two widths", scenes[0].Len())
	}
	reg := instr.BuiltinRegistry()
	var ins []instr.Instruction
	for _, od := range [][2]string{{"window.open", "win-1"}, {"cooker.start", "rc-1"}, {"light.get_state", "lamp-1"}} {
		in, err := reg.Build(od[0], od[1], instr.OriginUser, nil)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}

	// The decisions a twin fleet makes on each whole scene, per instruction.
	whole := make(map[string]bool)
	sceneValues := make(map[string]bool)
	twin, err := fleet.New(fleet.Config{Detector: det, Models: models, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenes {
		id := fmt.Sprintf("twin-%d", i)
		if _, err := twin.AddHome(fleet.HomeConfig{ID: id}); err != nil {
			t.Fatal(err)
		}
		if err := twin.PushContext(id, s); err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			out, err := twin.AuthorizeBatch(context.Background(), []fleet.BatchItem{{Home: id, In: in}}, 1)
			if err != nil || out[0].Err != "" {
				t.Fatalf("twin %s %s: %v %q", id, in.Op, err, out[0].Err)
			}
			whole[in.Op+" "+decisionKey(out[0].Decision)] = true
		}
		sceneValues[valuesKey(s)] = true
	}

	fl, err := fleet.New(fleet.Config{Detector: det, Models: models, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := fl.AddHome(fleet.HomeConfig{ID: "h"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.PushContext("h", scenes[0]); err != nil {
		t.Fatal(err)
	}
	srv, err := cloud.NewServer(cloud.Config{
		Users:    map[string]string{"gateway": "s3cret"},
		Registry: reg,
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
	gw, err := cloud.NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Login("gateway", "s3cret"); err != nil {
		t.Fatal(err)
	}

	const rounds = 150
	var wg sync.WaitGroup
	run := func(name string, fn func(r int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := fn(r); err != nil {
					t.Errorf("%s round %d: %v", name, r, err)
					return
				}
			}
		}()
	}
	run("pusher", func(r int) error { return fl.PushContext("h", scenes[r%len(scenes)]) })
	run("heartbeat", func(int) error { return fl.PushContext("h", sensor.Snapshot{}) })
	run("context post", func(r int) error {
		_, rejected, err := gw.FleetPushContext(map[string]sensor.Snapshot{"h": scenes[(r+1)%len(scenes)]})
		if err == nil && len(rejected) > 0 {
			err = fmt.Errorf("push rejected: %+v", rejected)
		}
		return err
	})
	for g := 0; g < 2; g++ {
		run(fmt.Sprintf("batch %d", g), func(r int) error {
			items := make([]fleet.BatchItem, 0, 2*len(ins))
			for k, in := range ins {
				items = append(items, fleet.BatchItem{Home: "h", In: in})
				if k == (r+g)%len(ins) {
					s := scenes[(r+k+g)%len(scenes)]
					items = append(items, fleet.BatchItem{Home: "h", In: in, Context: &s})
				}
			}
			out, err := fl.AuthorizeBatch(context.Background(), items, 1)
			if err != nil {
				return err
			}
			for i, res := range out {
				if key := items[i].In.Op + " " + decisionKey(res.Decision); res.Err != "" || !whole[key] {
					return fmt.Errorf("item %d (%s) = %q, %q: not a decision on one whole scene", i, items[i].In.Op, res.Err, key)
				}
			}
			return nil
		})
	}
	run("view reader", func(int) error {
		s, ok := fleet.HomeScene(h)
		if !ok {
			return fmt.Errorf("home has no view")
		}
		if v := valuesKey(s); !sceneValues[v] {
			return fmt.Errorf("view holds %s, not one whole pushed scene", v)
		}
		return nil
	})
	wg.Wait()
}
