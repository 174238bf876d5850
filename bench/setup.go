package main

import (
	"fmt"
	"runtime"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// The account every benchmark home is bound to.
const (
	gatewayUser   = "gateway"
	gatewaySecret = "loadtest"
)

// stack is one deployment as a user would run it: the trained models, the
// fleet with every home registered and the cloud server with every home
// bound to the gateway account.
type stack struct {
	detector *core.Detector
	models   *fleet.ModelRegistry
	instrs   *instr.Registry
	metrics  *obs.Registry
	fleet    *fleet.Fleet
	seqSet   *seq.Set
	srv      *cloud.Server
}

func (st *stack) close() {
	_ = st.srv.Close() // shutdown errors of a finished run change no result
}

// setupStats is what one set-up cost.
type setupStats struct {
	seconds   float64
	heapBytes float64 // live heap the set-up added, after a forced GC
	homeBytes float64 // live heap per registered home; measured set-ups only
}

// train builds the feature memory cmd/fleetload serves.
func train() (*core.FeatureMemory, error) {
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return memory, nil
}

// setup builds a stack for g's homes, arming spoofed homes with a trust
// engine and chained homes with the sequence judge. A nil memory is trained
// first, as a deployment must; tests share one. measureHomes brackets home
// registration with forced collections to measure heap per home, which
// inflates the set-up time, so only traced runs set it.
func setup(g *gen, memory *core.FeatureMemory, measureHomes bool) (*stack, setupStats, error) {
	var stats setupStats
	runtime.GC()
	before := liveHeap()
	start := time.Now()
	st, err := build(g, memory, measureHomes, &stats)
	if err != nil {
		return nil, stats, err
	}
	stats.seconds = time.Since(start).Seconds()
	runtime.GC()
	stats.heapBytes = liveHeap() - before
	return st, stats, nil
}

func build(g *gen, memory *core.FeatureMemory, measureHomes bool, stats *setupStats) (*stack, error) {
	var err error
	if memory == nil {
		if memory, err = train(); err != nil {
			return nil, err
		}
	}
	st := &stack{instrs: instr.BuiltinRegistry(), metrics: obs.NewRegistry()}
	if st.detector, err = core.DefaultDetector(); err != nil {
		return nil, err
	}
	if st.models, err = fleet.NewModelRegistry(memory); err != nil {
		return nil, err
	}
	st.fleet, err = fleet.New(fleet.Config{
		Detector: st.detector,
		Models:   st.models,
		Shards:   fleetShards,
		Metrics:  st.metrics,
	})
	if err != nil {
		return nil, err
	}
	if g.nChain > 0 {
		st.seqSet, err = seq.Train(seq.TrainConfig{Seed: g.seed + 77, Models: []dataset.Model{dataset.ModelWindow}})
		if err != nil {
			return nil, err
		}
	}
	var homesBefore float64
	if measureHomes {
		runtime.GC()
		homesBefore = liveHeap()
	}
	for i, id := range g.ids {
		cfg := fleet.HomeConfig{ID: id}
		switch {
		case g.spoofed[i]:
			if cfg.Trust, err = newTrustEngine(); err != nil {
				return nil, err
			}
		case g.chained[i]:
			cfg.Sequence = st.seqSet
		}
		if _, err := st.fleet.AddHome(cfg); err != nil {
			return nil, err
		}
	}
	if measureHomes {
		runtime.GC()
		stats.homeBytes = (liveHeap() - homesBefore) / float64(len(g.ids))
	}
	st.srv, err = cloud.NewServer(cloud.Config{
		Users:    map[string]string{gatewayUser: gatewaySecret},
		Registry: st.instrs,
		Forward:  func(instr.Instruction) error { return nil },
		Fleet:    st.fleet,
	})
	if err != nil {
		return nil, err
	}
	for _, id := range g.ids {
		if err := st.srv.BindHome(id, gatewayUser); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// newTrustEngine is a spoofed home's engine, also used for the traced
// replay's replicas.
func newTrustEngine() (*trust.Engine, error) {
	return trust.NewEngine(trust.Config{}, trust.SourceConfig{Name: "push", Required: true})
}

func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
