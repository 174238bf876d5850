package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/par"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// homeLogCapacity bounds each home's decision ring: the per-tenant audit
// tail, not the fleet archive.
const homeLogCapacity = 64

// Config wires a fleet.
type Config struct {
	// Detector is the shared sensitive-command detector (sensitivity is a
	// property of the instruction set, not of any one home).
	Detector *core.Detector
	// Models is the shared compiled-tree registry. Every home judges
	// against the same per-device-model trees.
	Models *ModelRegistry
	// Shards is the number of per-home state shards (default 16). Homes
	// are placed by a jump consistent hash of their ID, so growing the
	// shard count moves the minimum number of homes.
	Shards int
	// FreshFor is every home's context freshness budget: a pushed snapshot
	// older than this fails sensitive instructions closed. Zero means
	// pushes never expire (the load generator pushes fresh context with
	// every sensitive instruction); negative is an error.
	FreshFor time.Duration
	// Metrics, when non-nil, instruments the fleet: decisions by shard and
	// outcome, context pushes and batch sizes. Series are pre-registered
	// so the hot path stays allocation-free.
	Metrics *obs.Registry
	// Now is the staleness clock; defaults to time.Now. Injectable so
	// freshness tests are deterministic.
	Now func() time.Time
}

// Fleet is a sharded multi-tenant authorization service: per-home state
// spread over consistent-hash shards, one shared judger over the shared
// model registry.
type Fleet struct {
	shards  []shard
	judger  *core.Judger
	models  *ModelRegistry
	metrics *fleetMetrics
	now     func() time.Time

	freshFor  time.Duration
	homeCount atomic.Int64
	seqAnoms  atomic.Uint64
}

// shard owns a disjoint subset of the fleet's homes. The RWMutex guards
// only the home map (membership); per-home state has its own
// synchronisation, so two homes in one shard still authorize concurrently.
type shard struct {
	mu    sync.RWMutex
	homes map[string]*Home
	_     [24]byte // keep neighbouring shard locks off one cache line
}

// New assembles a fleet.
func New(cfg Config) (*Fleet, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("fleet: config needs a detector")
	}
	if cfg.Models == nil {
		return nil, fmt.Errorf("fleet: config needs a model registry")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.Shards < 0 || cfg.Shards > 1<<16 {
		return nil, fmt.Errorf("fleet: shard count %d outside [1, 65536]", cfg.Shards)
	}
	if cfg.FreshFor < 0 {
		return nil, fmt.Errorf("fleet: negative freshness budget %v", cfg.FreshFor)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	j, err := core.NewJudger(cfg.Detector, cfg.Models)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		shards:   make([]shard, cfg.Shards),
		judger:   j,
		models:   cfg.Models,
		metrics:  newFleetMetrics(cfg.Metrics, cfg.Shards),
		now:      cfg.Now,
		freshFor: cfg.FreshFor,
	}
	for i := range f.shards {
		f.shards[i].homes = make(map[string]*Home)
	}
	return f, nil
}

// Registry exposes the shared compiled-model registry.
func (f *Fleet) Registry() *ModelRegistry { return f.models }

// ShardCount reports the configured shard count.
func (f *Fleet) ShardCount() int { return len(f.shards) }

// HomeCount reports the number of registered homes.
func (f *Fleet) HomeCount() int { return int(f.homeCount.Load()) }

// HomeConfig registers one tenant.
type HomeConfig struct {
	// ID is the tenant key; it selects the shard and must be unique.
	ID string
	// Trust, when non-nil, arms the sensor-trust gate for this home: every
	// context push is reported into the engine's one declared source, and
	// while that source's score sits below the engine's threshold,
	// sensitive instructions fail closed with an interned reason (one
	// atomic flag load on the hot path). Engines are per-home — tenants
	// must not share behavioral baselines.
	Trust *trust.Engine
	// Sequence, when non-nil, arms the temporal sequence judge for this
	// home: judged decisions fold into a bounded per-home history ring and
	// a sensitive instruction must pass both the compiled tree and the
	// sequence judge (fail closed on anomaly). Tables are read-only and
	// safely shared across homes; the history ring is per-home.
	Sequence *seq.Set
}

// Home is one tenant's state: the latest pushed sensor context behind an
// atomic pointer and the home's decision stage (sequence history and
// bounded decision ring). The home is the fleet's context front end; the
// stage does the judging.
type Home struct {
	shardIdx uint32
	view     atomic.Pointer[homeView]
	stage    core.Pipeline

	// trust, when non-nil, scores this home's pushed context as
	// trustSource, the engine's one source (index 0).
	trust       *trust.Engine
	trustSource string
}

// homeView is one immutable published context: the snapshot plus the
// receive stamp the freshness budget is differenced against.
type homeView struct {
	snap sensor.Snapshot
	at   time.Time
}

// eventAt is the view's event time: the snapshot's own time, or the
// receive stamp for an unstamped push.
func (v *homeView) eventAt() time.Time {
	if v.snap.At.IsZero() {
		return v.at
	}
	return v.snap.At
}

// LowTrust reports whether the home's context source sits below its trust
// threshold (always false without an engine).
func (h *Home) LowTrust() bool {
	return h.trust != nil && !h.trust.TrustedIdx(0)
}

// AddHome registers a tenant and returns its handle.
func (f *Fleet) AddHome(cfg HomeConfig) (*Home, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: home needs an ID")
	}
	si := f.shardIndex(cfg.ID)
	h := &Home{
		shardIdx: si,
		stage:    core.NewPipeline(core.PipelineConfig{Judger: f.judger, Sequence: cfg.Sequence, LogCapacity: homeLogCapacity, Now: f.now}),
	}
	if cfg.Trust != nil {
		if cfg.Trust.Len() != 1 {
			return nil, fmt.Errorf("fleet: home %q: trust engine declares %d sources, want 1", cfg.ID, cfg.Trust.Len())
		}
		h.trust = cfg.Trust
		h.trustSource = cfg.Trust.Sources()[0]
	}
	s := &f.shards[si]
	s.mu.Lock()
	if _, dup := s.homes[cfg.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: home %q already registered", cfg.ID)
	}
	s.homes[cfg.ID] = h
	s.mu.Unlock()
	f.metrics.observeHomes(f.homeCount.Add(1))
	return h, nil
}

// Home looks a tenant up.
func (f *Fleet) Home(id string) (*Home, bool) {
	s := &f.shards[f.shardIndex(id)]
	s.mu.RLock()
	h, ok := s.homes[id]
	s.mu.RUnlock()
	return h, ok
}

// LowTrustHomes counts registered homes whose context source currently
// sits below its trust threshold (a full-fleet walk — for the stats
// endpoint and reports, not the hot path).
func (f *Fleet) LowTrustHomes() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		for _, h := range s.homes {
			if h.LowTrust() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// shardIndex places a home ID by jump consistent hash (Lamping & Veach)
// over an FNV-64a of the ID: deterministic, allocation-free, and minimal
// movement when the shard count changes.
//
//iot:hotpath
func (f *Fleet) shardIndex(id string) uint32 {
	return jumpHash(fnv64a(id), len(f.shards))
}

// fnv64a hashes a home ID without allocating.
//
//iot:hotpath
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// jumpHash is the jump consistent hash of Lamping & Veach ("A Fast,
// Minimal Memory, Consistent Hash Algorithm"): maps key uniformly onto
// [0, buckets) and relocates only ~1/buckets of keys when buckets grows.
//
//iot:hotpath
func jumpHash(key uint64, buckets int) uint32 {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return uint32(b)
}

// PushContext publishes a home's latest sensor context. This is the
// event-driven write path: one immutable view behind an atomic pointer,
// stamped with the fleet clock so freshness budgets difference receive
// times, not device times. A push whose event time is behind the current
// view's is dropped and counted, not stored; like epoch.Store.Push, that
// is not an error.
func (f *Fleet) PushContext(id string, snap sensor.Snapshot) error {
	h, ok := f.Home(id)
	if !ok {
		return fmt.Errorf("fleet: unknown home %q", id)
	}
	f.push(h, snap)
	return nil
}

// push stores the view on a known home handle. A push's event time is its
// snapshot's time, or its receive time when the snapshot carries none; a
// push strictly behind the current view's event time is dropped and
// counted, as epoch.Store drops an out-of-order delta, before its view is
// allocated. The trust engine still sees a dropped push, so a replay
// keeps costing its source trust.
//
//iot:hotpath
func (f *Fleet) push(h *Home, snap sensor.Snapshot) {
	now := f.now()
	at := snap.At
	if at.IsZero() {
		at = now
	}
	if h.trust != nil {
		// Score on the device's event time when it carries one (the
		// behavioral fingerprint cares about the sensor's own timeline).
		h.trust.Observe(h.trustSource, snap, at) //iot:allow hotcall per-push trust scoring holds a lock by design; the authorize fast path never calls it
	}
	var v *homeView
	for {
		cur := h.view.Load()
		if cur != nil && at.Before(cur.eventAt()) {
			f.metrics.observeDrop()
			return
		}
		if v == nil {
			v = &homeView{snap: snap, at: now}
		}
		if h.view.CompareAndSwap(cur, v) {
			break
		}
	}
	f.metrics.observePush()
}

// authorizeHome judges one instruction on the home's stage and counts the
// outcome into the shard and anomaly families — the per-item hot path of
// AuthorizeBatch. Steady state (context pushed within budget) is one
// atomic view load, the shared judger's zero-allocation judge, a ring-log
// append and counter increments.
//
//iot:hotpath
//iot:failclosed
func (f *Fleet) authorizeHome(h *Home, in instr.Instruction) (core.Decision, error) {
	snap, state := f.homeContext(h)
	dec, err := h.stage.Decide(in, snap, state, nil)
	if err != nil {
		return core.Decision{}, err
	}
	f.metrics.observeDecision(h.shardIdx, dec.Outcome)
	if dec.Outcome == core.OutcomeSeqAnomaly {
		f.seqAnoms.Add(1)
	}
	return dec, nil
}

// SeqAnomalies reports how many sensitive instructions the sequence judge
// rejected fleet-wide after the static tree allowed them.
func (f *Fleet) SeqAnomalies() uint64 { return f.seqAnoms.Load() }

// homeContext is the fleet's context front end: it picks the snapshot the
// home's stage judges and says how far to believe it. Steady state is the
// pushed view within the fleet's freshness budget. With no view, or a
// stale one, the last view (if any) is handed over marked missing or
// stale, so sensitive instructions fail closed and non-sensitive ones are
// still judged on whatever the home last pushed — the same
// bounded-staleness / fail-closed trade the single-home framework makes.
// A fresh push from a source below its trust threshold is low trust: a
// spoofed feed that keeps talking is the one degraded shape freshness
// budgets cannot see.
//
//iot:hotpath
func (f *Fleet) homeContext(h *Home) (sensor.Snapshot, core.ContextState) {
	v := h.view.Load()
	switch {
	case v == nil:
		return sensor.Snapshot{}, core.ContextMissing
	case f.freshFor > 0 && f.now().Sub(v.at) > f.freshFor:
		return v.snap, core.ContextStale
	case h.trust != nil && !h.trust.TrustedIdx(0):
		return v.snap, core.ContextLowTrust
	}
	return v.snap, core.ContextOK
}

// BatchItem is one instruction in a fleet batch, optionally carrying the
// home's newest context ("push before judge" — the device gateway pattern
// of one round trip per decision window).
type BatchItem struct {
	Home    string
	In      instr.Instruction
	Context *sensor.Snapshot
}

// BatchResult is one item's outcome. Err is per-item so one tenant's bad
// request (unknown home, unjudgeable instruction) cannot abort another
// tenant's traffic — batch-level errors are reserved for cancellation.
type BatchResult struct {
	Decision core.Decision
	Err      string
}

// AuthorizeBatch judges a mixed-home batch, fanned out across shards on at
// most workers goroutines (Workers-resolved: 0 means GOMAXPROCS). Within a
// shard, items run in input order, so each home's context pushes and
// judgments serialise exactly as submitted; results land at their input
// index. Decisions depend only on item content and order, never on the
// shard/worker schedule, so seeded batch streams are bit-identical at any
// shard or worker count.
//
//iot:failclosed
func (f *Fleet) AuthorizeBatch(ctx context.Context, items []BatchItem, workers int) ([]BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.metrics.observeBatch(len(items))
	out := make([]BatchResult, len(items))
	buckets := make([][]int, len(f.shards))
	for i := range items {
		si := f.shardIndex(items[i].Home)
		buckets[si] = append(buckets[si], i)
	}
	active := make([]int, 0, len(buckets))
	for si := range buckets {
		if len(buckets[si]) > 0 {
			active = append(active, si)
		}
	}
	err := par.Do(len(active), workers, func(k int) error {
		for _, idx := range buckets[active[k]] {
			if err := ctx.Err(); err != nil {
				return err
			}
			it := &items[idx]
			h, ok := f.Home(it.Home)
			if !ok {
				out[idx] = BatchResult{Err: "unknown home " + it.Home}
				continue
			}
			if it.Context != nil {
				f.push(h, *it.Context) // a dropped push leaves the newer view to judge on
			}
			dec, err := f.authorizeHome(h, it.In)
			if err != nil {
				out[idx] = BatchResult{Err: err.Error()}
				continue
			}
			out[idx] = BatchResult{Decision: dec}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
