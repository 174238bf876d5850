package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/par"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

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
	// HomeLogCapacity bounds each home's ring decision log (default 64
	// entries — the per-tenant audit tail, not the fleet archive).
	HomeLogCapacity int
	// FreshFor is the default per-home context freshness budget: a pushed
	// snapshot older than this fails sensitive instructions closed. Zero
	// means pushes never expire (the load generator pushes fresh context
	// with every sensitive instruction). Overridable per home.
	FreshFor time.Duration
	// Metrics, when non-nil, instruments the fleet: decisions by shard and
	// outcome, context pushes, batch sizes, and (capped) per-tenant
	// decision counters. Series are pre-registered so the hot path stays
	// allocation-free.
	Metrics *obs.Registry
	// TenantMetricsLimit caps how many homes get their own labeled
	// decision series (registered at AddHome, first come first served).
	// Zero disables per-tenant series: an unbounded home label would make
	// the exposition scale with the fleet.
	TenantMetricsLimit int
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

	logCap     int
	freshFor   time.Duration
	tenantCap  int
	homeCount  atomic.Int64
	tenantSeen atomic.Int64
	seqAnoms   atomic.Uint64
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
	if cfg.HomeLogCapacity == 0 {
		cfg.HomeLogCapacity = 64
	}
	if cfg.HomeLogCapacity < 0 {
		return nil, fmt.Errorf("fleet: negative home log capacity %d", cfg.HomeLogCapacity)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	j, err := core.NewJudger(cfg.Detector, cfg.Models)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		shards:    make([]shard, cfg.Shards),
		judger:    j,
		models:    cfg.Models,
		metrics:   newFleetMetrics(cfg.Metrics, cfg.Shards),
		now:       cfg.Now,
		logCap:    cfg.HomeLogCapacity,
		freshFor:  cfg.FreshFor,
		tenantCap: cfg.TenantMetricsLimit,
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
	// Collector, when non-nil, is the pull fallback: if the home's pushed
	// context is missing or stale, the fleet collects through it (guarded
	// by Breaker when set) instead of failing closed immediately.
	Collector core.Collector
	// Breaker guards Collector against a flapping gateway; optional.
	Breaker *resilience.Breaker
	// FreshFor overrides the fleet's default context freshness budget for
	// this home; zero inherits the fleet default.
	FreshFor time.Duration
	// Trust, when non-nil, arms the sensor-trust gate for this home: every
	// context push is reported into the engine as TrustSource, and while
	// that source's score sits below the engine's threshold, sensitive
	// instructions fail closed with an interned reason (one atomic flag
	// load on the hot path). Engines are per-home — tenants must not share
	// behavioral baselines.
	Trust *trust.Engine
	// TrustSource names the engine source the home's pushes observe as;
	// empty defaults to the engine's sole source (an error if the engine
	// declares several).
	TrustSource string
	// Sequence, when non-nil, arms the temporal sequence judge for this
	// home: judged decisions fold into a bounded per-home history ring and
	// a sensitive instruction must pass both the compiled tree and the
	// sequence judge (fail closed on anomaly). Tables are read-only and
	// safely shared across homes; the history ring is per-home.
	Sequence *seq.Set
}

// Home is one tenant's state: the latest pushed sensor context behind an
// atomic pointer, the optional pull path, and the home's decision stage
// (sequence history and bounded decision ring). The home is the fleet's
// context front end; the stage does the judging.
type Home struct {
	id        string
	shardIdx  uint32
	freshFor  time.Duration
	view      atomic.Pointer[homeView]
	stage     core.Pipeline
	collector core.Collector
	breaker   *resilience.Breaker

	// trust, when non-nil, scores this home's pushed context; trustIdx is
	// trustSource's index in the engine, resolved once at AddHome.
	trust       *trust.Engine
	trustIdx    int
	trustSource string

	pushes    atomic.Uint64
	decisions atomic.Uint64
	tenant    [core.OutcomeCount]*obs.Counter // nil cells when not individually instrumented
}

// homeView is one immutable published context: the snapshot plus the
// receive stamp the freshness budget is differenced against.
type homeView struct {
	snap sensor.Snapshot
	at   time.Time
}

// ID returns the home's tenant key.
func (h *Home) ID() string { return h.id }

// Pushes reports how many context pushes the home has accepted.
func (h *Home) Pushes() uint64 { return h.pushes.Load() }

// Decisions reports how many instructions the home has had judged.
func (h *Home) Decisions() uint64 { return h.decisions.Load() }

// TrustScore reports the home's context-source trust score; ok is false
// when the home has no trust engine wired.
func (h *Home) TrustScore() (float64, bool) {
	if h.trust == nil {
		return 0, false
	}
	return h.trust.ScoreIdx(h.trustIdx), true
}

// LowTrust reports whether the home's context source sits below its trust
// threshold (always false without an engine).
func (h *Home) LowTrust() bool {
	return h.trust != nil && !h.trust.TrustedIdx(h.trustIdx)
}

// AddHome registers a tenant and returns its handle.
func (f *Fleet) AddHome(cfg HomeConfig) (*Home, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: home needs an ID")
	}
	if cfg.FreshFor == 0 {
		cfg.FreshFor = f.freshFor
	}
	si := f.shardIndex(cfg.ID)
	h := &Home{
		id:        cfg.ID,
		shardIdx:  si,
		freshFor:  cfg.FreshFor,
		collector: cfg.Collector,
		breaker:   cfg.Breaker,
		stage:     core.NewPipeline(core.PipelineConfig{Judger: f.judger, Sequence: cfg.Sequence, LogCapacity: f.logCap, Now: f.now}),
	}
	if cfg.Trust != nil {
		src := cfg.TrustSource
		if src == "" {
			if cfg.Trust.Len() != 1 {
				return nil, fmt.Errorf("fleet: home %q: trust engine declares %d sources, name one via TrustSource", cfg.ID, cfg.Trust.Len())
			}
			src = cfg.Trust.Sources()[0]
		}
		idx, ok := cfg.Trust.Index(src)
		if !ok {
			return nil, fmt.Errorf("fleet: home %q: trust engine does not declare source %q", cfg.ID, src)
		}
		h.trust = cfg.Trust
		h.trustIdx = idx
		h.trustSource = src
	}
	s := &f.shards[si]
	s.mu.Lock()
	if _, dup := s.homes[cfg.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: home %q already registered", cfg.ID)
	}
	// Claim a tenant-metrics slot only after the duplicate check — a
	// rejected registration must not burn one of the capped slots or leave
	// an orphan labeled series in the registry. Resolving the cells under
	// the shard lock publishes them before the home is visible to readers.
	if f.metrics != nil && f.tenantCap > 0 && f.tenantSeen.Load() < int64(f.tenantCap) {
		if f.tenantSeen.Add(1) <= int64(f.tenantCap) {
			h.tenant = f.metrics.tenantCells(cfg.ID)
		}
	}
	s.homes[cfg.ID] = h
	s.mu.Unlock()
	f.metrics.observeHomes(f.homeCount.Add(1))
	return h, nil
}

// RemoveHome deregisters a tenant; its in-flight authorizations complete
// against the handle they already hold.
func (f *Fleet) RemoveHome(id string) bool {
	s := &f.shards[f.shardIndex(id)]
	s.mu.Lock()
	_, ok := s.homes[id]
	if ok {
		delete(s.homes, id)
	}
	s.mu.Unlock()
	if ok {
		f.metrics.observeHomes(f.homeCount.Add(-1))
	}
	return ok
}

// Home looks a tenant up.
func (f *Fleet) Home(id string) (*Home, bool) {
	s := &f.shards[f.shardIndex(id)]
	s.mu.RLock()
	h, ok := s.homes[id]
	s.mu.RUnlock()
	return h, ok
}

// HomeIDs lists the registered tenants, sorted (a full-fleet walk — for
// reports and tests, not the hot path).
func (f *Fleet) HomeIDs() []string {
	out := make([]string, 0, f.homeCount.Load())
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		for id := range s.homes {
			out = append(out, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
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
// times, not device times.
func (f *Fleet) PushContext(id string, snap sensor.Snapshot) error {
	h, ok := f.Home(id)
	if !ok {
		return fmt.Errorf("fleet: unknown home %q", id)
	}
	f.push(h, snap)
	return nil
}

// push stores the view on a known home handle.
//
//iot:hotpath
func (f *Fleet) push(h *Home, snap sensor.Snapshot) {
	now := f.now()
	if h.trust != nil {
		// Score on the device's event time when it carries one (the
		// behavioral fingerprint cares about the sensor's own timeline);
		// fall back to receive time for unstamped pushes.
		at := snap.At
		if at.IsZero() {
			at = now
		}
		h.trust.Observe(h.trustSource, snap, at) //iot:allow hotcall per-push trust scoring holds a lock by design; the authorize fast path never calls it
	}
	v := &homeView{snap: snap, at: now}
	h.view.Store(v)
	h.pushes.Add(1)
	f.metrics.observePush()
}

// Authorize judges one instruction for one home — the fleet's per-home hot
// path. Steady state (home known, context pushed within budget) is: shard
// read-lock map lookup, one atomic view load, the shared judger's
// zero-allocation judge, a ring-log append and two counter increments.
//
//iot:hotpath
//iot:failclosed
func (f *Fleet) Authorize(ctx context.Context, homeID string, in instr.Instruction) (core.Decision, error) {
	if err := ctx.Err(); err != nil {
		return core.Decision{}, err
	}
	h, ok := f.Home(homeID)
	if !ok {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return core.Decision{}, fmt.Errorf("fleet: unknown home %q", homeID)
	}
	return f.authorizeHome(ctx, h, in)
}

// authorizeHome judges one instruction on the home's stage and counts the
// outcome into the shard, tenant and anomaly families.
//
//iot:hotpath
//iot:failclosed
func (f *Fleet) authorizeHome(ctx context.Context, h *Home, in instr.Instruction) (core.Decision, error) {
	snap, state := f.homeContext(ctx, h)
	dec, err := h.stage.Decide(in, snap, state, nil)
	if err != nil {
		return core.Decision{}, err
	}
	h.decisions.Add(1)
	f.metrics.observeDecision(h.shardIdx, dec.Outcome)
	if c := h.tenant[dec.Outcome]; c != nil {
		c.Inc()
	}
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
// pushed view within its freshness budget. With no view, or a stale one, a
// wired pull collector is tried (behind the home's breaker); failing
// that, the last view (if any) is handed over marked missing, stale or
// pull-failed, so sensitive instructions fail closed and non-sensitive
// ones are still judged on whatever the home last pushed — the same
// bounded-staleness / fail-closed trade the single-home framework makes.
// Fresh context — pushed or pulled — from a source below its trust
// threshold is low trust: a spoofed feed that keeps talking is the one
// degraded shape freshness budgets cannot see.
//
//iot:hotpath
func (f *Fleet) homeContext(ctx context.Context, h *Home) (sensor.Snapshot, core.ContextState) {
	v := h.view.Load()
	var snap sensor.Snapshot
	if v != nil {
		snap = v.snap
	}
	switch {
	case v != nil && (h.freshFor <= 0 || f.now().Sub(v.at) <= h.freshFor):
		// Fresh push: judge it, subject to trust below.
	case h.collector != nil:
		pulled, err := f.collectPull(ctx, h)
		if err != nil {
			return snap, core.ContextPullFailed
		}
		snap = pulled
	case v != nil:
		return snap, core.ContextStale
	default:
		return snap, core.ContextMissing
	}
	if h.trust != nil && !h.trust.TrustedIdx(h.trustIdx) {
		return snap, core.ContextLowTrust
	}
	return snap, core.ContextOK
}

// collectPull polls the home's collector, guarded by its breaker.
func (f *Fleet) collectPull(ctx context.Context, h *Home) (sensor.Snapshot, error) {
	if h.breaker != nil {
		if err := h.breaker.Allow(); err != nil {
			return sensor.Snapshot{}, err
		}
	}
	snap, err := h.collector.Collect(ctx)
	if h.breaker != nil {
		h.breaker.Record(err)
	}
	if err != nil {
		return sensor.Snapshot{}, err
	}
	f.push(h, snap)
	return snap, nil
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
				f.push(h, *it.Context)
			}
			dec, err := f.authorizeHome(ctx, h, it.In)
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

// Log returns a copy of the home's retained decisions, oldest first.
func (h *Home) Log() []core.LogEntry { return h.stage.Log() }

// LogRecent returns the newest n retained decisions, oldest first.
func (h *Home) LogRecent(n int) []core.LogEntry { return h.stage.LogRecent(n) }
