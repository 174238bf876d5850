package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// Framework is the assembled IDS of Fig 3: detector → collector → feature
// memory → determiner. It is the single-home front end of the decision
// stage: it pulls live context, classifies its provenance, and hands both
// to its Pipeline. It exposes the two integration surfaces the rest of
// the system uses: Authorize (collect live context, then judge) and Gate /
// Interceptor adapters for the vendor bridges and the automation engine.
type Framework struct {
	collector Collector
	stage     Pipeline

	metrics *frameworkMetrics
	now     func() time.Time
}

// defaultLogCapacity bounds the framework log when the caller does not
// choose a size.
const defaultLogCapacity = 4096

// Config wires a framework.
type Config struct {
	Detector  *Detector
	Collector Collector
	Memory    *FeatureMemory
	// LogCapacity bounds the decision log's ring buffer; 0 means the
	// default (4096 entries), and above MaxLogCapacity is an error. The
	// log retains the newest entries.
	LogCapacity int
	// Metrics, when non-nil, instruments the framework: decision counts by
	// outcome and sensitivity, Authorize latency, and decision-log
	// append/eviction counts. Every series is pre-registered here, so the
	// hot path stays allocation-free.
	Metrics *obs.Registry
	// Now is the latency clock (injectable so histogram tests are
	// deterministic); defaults to time.Now.
	Now func() time.Time
	// Sequence, when non-nil, arms the temporal sequence judge: every
	// decision is folded into a bounded per-framework history ring, and a
	// sensitive instruction must pass BOTH the compiled tree and the
	// sequence judge (fail closed on anomaly).
	Sequence *seq.Set
}

// New assembles the framework.
func New(cfg Config) (*Framework, error) {
	if cfg.Collector == nil {
		return nil, fmt.Errorf("core: framework needs a collector")
	}
	// A nil *FeatureMemory must stay a nil ModelStore, not a typed-nil
	// interface, so NewJudger's validation still fires.
	var store ModelStore
	if cfg.Memory != nil {
		store = cfg.Memory
	}
	j, err := NewJudger(cfg.Detector, store)
	if err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.LogCapacity <= 0 {
		cfg.LogCapacity = defaultLogCapacity
	}
	if cfg.LogCapacity > MaxLogCapacity {
		return nil, fmt.Errorf("core: log capacity %d above %d", cfg.LogCapacity, MaxLogCapacity)
	}
	f := &Framework{
		collector: cfg.Collector,
		stage:     NewPipeline(PipelineConfig{Judger: j, Sequence: cfg.Sequence, LogCapacity: cfg.LogCapacity, Now: cfg.Now}),
		metrics:   newFrameworkMetrics(cfg.Metrics),
		now:       cfg.Now,
	}
	if cfg.Metrics != nil {
		f.stage.log.metrics = &logMetrics{
			appends: cfg.Metrics.NewCounter(metricLogAppends,
				"Entries appended to the authorization decision log."),
			evictions: cfg.Metrics.NewCounter(metricLogEvictions,
				"Oldest entries overwritten (dropped) by the decision log's bounded ring."),
		}
	}
	return f, nil
}

// Authorize collects the live sensor context and judges the instruction —
// the full runtime path of Fig 3. The context bounds the collection round
// trip.
//
// Degraded mode: when the collector reports per-source provenance (a
// DetailedCollector, e.g. MultiCollector) and a required source is missing
// or beyond its staleness budget, or below its trust threshold, sensitive
// instructions fail closed with an explicit rejection while non-sensitive
// instructions still judge against the partial context — the explicit
// choice between bounded staleness and failing closed, never crashing
// open.
//
//iot:hotpath
//iot:failclosed
func (f *Framework) Authorize(ctx context.Context, in instr.Instruction) (Decision, error) {
	start := f.now()
	snap, prov, err := f.collect(ctx)
	if err != nil {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return Decision{}, fmt.Errorf("core: collect context: %w", err)
	}
	state, why := contextState(in, prov) //iot:allow hotcall fail-closed path is cold; the steady state returns before the missing-source scan allocates
	dec := f.decide(in, snap, state, why)
	f.metrics.observeLatency(f.now().Sub(start))
	return dec, nil
}

// collect prefers the provenance-reporting path when the collector offers
// it.
func (f *Framework) collect(ctx context.Context) (sensor.Snapshot, Provenance, error) {
	if dc, ok := f.collector.(DetailedCollector); ok {
		return dc.CollectDetailed(ctx)
	}
	snap, err := f.collector.Collect(ctx)
	return snap, nil, err
}

// contextState classifies a pull's provenance for the decision stage. A
// required source that contributed nothing is missing — or stale when it
// did serve earlier and its data aged out (an expired push carries its
// age) — and names the sources in the explanation; a required source below
// its trust threshold is fresh-but-fabricated context, the
// sensor-spoofing twin of no context at all.
func contextState(in instr.Instruction, prov Provenance) (ContextState, *string) {
	missing := prov.MissingRequired()
	if len(missing) == 0 {
		if len(prov.LowTrustRequired()) > 0 {
			return ContextLowTrust, nil
		}
		return ContextOK, nil
	}
	state := ContextStale
	for _, s := range prov {
		if s.Required && s.State == SourceMissing && s.Age == 0 {
			state = ContextMissing
		}
	}
	why := in.Op + " blocked; missing required source(s): " + strings.Join(missing, ", ")
	return state, &why
}

// Judge decides against a caller-supplied context (used when the caller
// already holds the snapshot, e.g. the automation engine's evaluation
// context).
func (f *Framework) Judge(in instr.Instruction, ctx sensor.Snapshot) Decision {
	return f.decide(in, ctx, ContextOK, nil)
}

// decide runs the decision stage and records the result in the
// framework's metric families.
//
//iot:failclosed
func (f *Framework) decide(in instr.Instruction, snap sensor.Snapshot, state ContextState, why *string) Decision {
	dec := f.stage.Decide(in, snap, state, why)
	f.metrics.observeDecision(dec.Outcome, dec.Sensitive)
	return dec
}

// Log returns a copy of the retained authorisation log, oldest first. The
// log is a bounded ring: once more decisions have been made than the
// configured capacity, only the newest survive.
func (f *Framework) Log() []LogEntry { return f.stage.Log() }

// Gate adapts the framework to the vendor bridges' gate signature: a
// non-nil error blocks execution.
func (f *Framework) Gate(in instr.Instruction, ctx sensor.Snapshot) error {
	if dec := f.Judge(in, ctx); !dec.Allowed {
		return fmt.Errorf("ids: %s", dec.Reason)
	}
	return nil
}

// Interceptor adapts the framework to the automation engine: an
// unjudgeable sensitive command fails closed in Judge like any other
// rejection.
func (f *Framework) Interceptor() func(in instr.Instruction, ctx sensor.Snapshot) (bool, string) {
	return func(in instr.Instruction, ctx sensor.Snapshot) (bool, string) {
		dec := f.Judge(in, ctx)
		return dec.Allowed, dec.Reason
	}
}
