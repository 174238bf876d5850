package cloud

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

var (
	trainOnce   sync.Once
	trainedMem  *core.FeatureMemory
	trainedDet  *core.Detector
	trainFailed error
)

// trainedIDS trains the six context models once per test binary.
func trainedIDS(t *testing.T) (*core.Detector, *core.FeatureMemory) {
	t.Helper()
	trainOnce.Do(func() {
		corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
		if err != nil {
			trainFailed = err
			return
		}
		trainedMem, trainFailed = core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
		if trainFailed != nil {
			return
		}
		trainedDet, trainFailed = core.DefaultDetector()
	})
	if trainFailed != nil {
		t.Fatal(trainFailed)
	}
	return trainedDet, trainedMem
}

// TestCommandTrustBypass: /v1/command must apply the same fail-closed
// trust gate as Framework.Authorize. The pushed window scene is legal, so
// only the collapsed trust engine stands between window.open and the
// device — the command must be refused, not forwarded.
func TestCommandTrustBypass(t *testing.T) {
	det, mem := trainedIDS(t)
	eng := trustEngineForCloud(t, "sim")
	st, err := epoch.NewStore(epoch.Config{},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := core.NewEpochCollector(core.EpochCollectorConfig{Trust: eng}, st)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Detector: det, Collector: coll, Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	scene, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("sim", scene); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_600_000_000, 0)
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		eng.Observe("sim", corruptCloudScene(t, at), at)
	}

	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:     map[string]string{"alice": "s3cret"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   fwd.forward,
		Authorize: fw.Authorize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("window.open on collapsed trust: %v, want 403", err)
	}
	if fwd.count() != 0 {
		t.Fatal("window.open forwarded on a collapsed trust engine")
	}
	hist := serverHistory(srv)
	if len(hist) != 1 || hist[0].Detail != "ids: "+core.ReasonLowTrust {
		t.Fatalf("history = %+v, want one low-trust rejection", hist)
	}
}

// TestCommandDegradedMatrix: with a multi-source collector whose required
// source is down, /v1/command follows the degraded-mode matrix — the
// sensitive instruction is refused (403, fail closed) while a
// non-sensitive one is still judged on the partial context and forwarded.
func TestCommandDegradedMatrix(t *testing.T) {
	det, mem := trainedIDS(t)
	scene, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.NewMultiCollector(core.MultiConfig{},
		core.Source{Name: "gateway", Required: true, Collector: core.CollectorFunc(
			func(context.Context) (sensor.Snapshot, error) { return sensor.Snapshot{}, errors.New("gateway down") })},
		core.Source{Name: "aux", Collector: core.CollectorFunc(
			func(context.Context) (sensor.Snapshot, error) { return scene, nil })},
	)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Detector: det, Collector: multi, Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	srv, fwd := startCloud(t, fw.Authorize)
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("sensitive command without its required source: %v, want 403", err)
	}
	if err := c.Command("light.get_state", "light-1", nil); err != nil {
		t.Fatalf("non-sensitive command on partial context: %v", err)
	}
	if fwd.count() != 1 {
		t.Fatalf("forwarded = %d, want only the non-sensitive command", fwd.count())
	}
}
