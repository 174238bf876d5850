package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// trainedBytes trains the full memory at the given worker count and
// returns its serialised form.
func trainedBytes(t *testing.T, workers int) []byte {
	t.Helper()
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := Train(corpus, dataset.BuildConfig{Seed: 42}, TrainConfig{Seed: 9, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainDeterminism is the tentpole's golden-equality gate: the memory
// JSON written after a serial train must be byte-identical to the memory
// JSON written after a Workers=8 train — trees, weights and reports alike.
func TestTrainDeterminism(t *testing.T) {
	serial := trainedBytes(t, 1)
	parallel := trainedBytes(t, 8)
	if !bytes.Equal(serial, parallel) {
		i := 0
		for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(serial) {
			hi = len(serial)
		}
		t.Fatalf("serialised memories diverge at byte %d: serial ...%q...", i, serial[lo:hi])
	}
}

// fakeCollector returns a canned snapshot after recording its invocation.
type fakeCollector struct {
	feat  sensor.Feature
	value sensor.Value
	at    time.Time
	calls *atomic.Int32
	err   error
}

func (c *fakeCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	if c.calls != nil {
		c.calls.Add(1)
	}
	if c.err != nil {
		return sensor.Snapshot{}, c.err
	}
	s := sensor.NewSnapshot(c.at)
	s.Set(c.feat, c.value)
	return s, nil
}

// TestMultiCollectorDeterminism checks the concurrent fan-out keeps the
// serial contract: every source polled, later sources override earlier
// ones on shared features, and the reported error is the lowest-index
// failure.
func TestMultiCollectorDeterminism(t *testing.T) {
	var calls atomic.Int32
	at := time.Date(2021, 6, 1, 10, 0, 0, 0, time.UTC)
	srcs := required(
		&fakeCollector{feat: sensor.FeatSmoke, value: sensor.Bool(true), at: at, calls: &calls},
		&fakeCollector{feat: sensor.FeatMotion, value: sensor.Bool(true), at: at, calls: &calls},
		&fakeCollector{feat: sensor.FeatSmoke, value: sensor.Bool(false), at: at, calls: &calls},
	)
	m, err := NewMultiCollector(MultiConfig{}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		calls.Store(0)
		snap, err := m.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 3 {
			t.Fatalf("polled %d sources, want 3", calls.Load())
		}
		// Index-order merge: collector 2's smoke=false wins over collector 0.
		if smoke := snap.Bool(sensor.FeatSmoke); smoke {
			t.Fatal("later source must override earlier on shared features")
		}
		if !snap.Bool(sensor.FeatMotion) {
			t.Fatal("disjoint feature lost in merge")
		}
	}
}

func TestMultiCollectorLowestIndexError(t *testing.T) {
	at := time.Now()
	errA := errors.New("vendor A down")
	errB := errors.New("vendor B down")
	srcs := required(
		&fakeCollector{feat: sensor.FeatSmoke, value: sensor.Bool(true), at: at},
		&fakeCollector{err: errA},
		&fakeCollector{err: errB},
	)
	m, err := NewMultiCollector(MultiConfig{}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		_, err := m.Collect(context.Background())
		if err == nil || !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want the lowest-index failure %v", trial, err, errA)
		}
		// Both failed required sources are named, in declaration order.
		if !strings.Contains(err.Error(), "src1, src2") {
			t.Fatalf("err = %q, want both missing sources named in order", err)
		}
	}
}
