package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/epoch"
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

// Home is one tenant's state: its context view, a cell behind an atomic
// pointer that the home's first accepted push allocates and every later
// push rewrites in place, and the home's decision stage (sequence history
// and bounded decision ring). The home is the fleet's context front end;
// the stage does the judging.
type Home struct {
	shardIdx uint32
	view     atomic.Pointer[homeView]
	stage    core.Pipeline

	// trust, when non-nil, scores this home's pushed context as
	// trustSource, the engine's one source (index 0).
	trust       *trust.Engine
	trustSource string
}

// homeView is a home's context view: the newest accepted push's values,
// copied into entries the view owns, with that push's own time, and the
// receive stamp the freshness budget is differenced against. The fleet
// keeps none of a pusher's values, so a snapshot changed after its push
// changes no view. A view is allocated once, on the home's first accepted
// push, filled before it is published, and never replaced; mu orders
// every later rewrite and read. Lock order: a view, then its home's
// sequence tracker, then its decision log.
type homeView struct {
	mu   sync.Mutex
	snap sensor.Snapshot
	at   time.Time
}

// ingest applies the push-ingest rule against the view and, for an
// accepted push, copies its values into the view's own entries (a
// heartbeat keeps the values) and restamps the view.
//
//iot:hotpath
func (v *homeView) ingest(snap sensor.Snapshot, at, now time.Time) epoch.Verdict {
	v.mu.Lock()
	defer v.mu.Unlock()
	verdict := epoch.Ingest(snap, at, epoch.EventTime(v.snap, v.at))
	if verdict == epoch.Accepted {
		if snap.Len() > 0 {
			v.snap.SetValues(snap) //iot:allow hotcall allocates only for a scene wider than any the home pushed before, so at most the vocabulary's width
		}
		v.snap.At, v.at = snap.At, now
	}
	return verdict
}

// firstPush applies the push-ingest rule to a home that has no view yet
// and publishes an accepted push as the home's view. A push that loses
// the race to publish ingests against the winner's view instead.
func (h *Home) firstPush(snap sensor.Snapshot, at, now time.Time) epoch.Verdict {
	if verdict := epoch.Ingest(snap, at, time.Time{}); verdict != epoch.Accepted {
		return verdict
	}
	v := &homeView{snap: sensor.NewSnapshotCap(snap.At, snap.Len()), at: now}
	v.snap.SetValues(snap)
	if h.view.CompareAndSwap(nil, v) {
		return epoch.Accepted
	}
	return h.view.Load().ingest(snap, at, now)
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
	return f.homeIn(f.shardIndex(id), id)
}

// homeIn looks a tenant up in shard si, the shard its ID hashes to.
func (f *Fleet) homeIn(si uint32, id string) (*Home, bool) {
	s := &f.shards[si]
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
// event-driven write path: the push's values are copied into the home's
// view, stamped with the fleet clock so freshness budgets difference
// receive times, not device times. The fleet keeps nothing of snap: a
// later Set on it, or on a copy of it, changes no home. A push the ingest
// rule drops is counted, not stored; like epoch.Store.Push, that is not
// an error.
func (f *Fleet) PushContext(id string, snap sensor.Snapshot) error {
	h, ok := f.Home(id)
	if !ok {
		return fmt.Errorf("fleet: unknown home %q", id)
	}
	f.push(h, snap)
	return nil
}

// push applies the push-ingest rule (epoch.Ingest) against the home's
// view and copies an accepted push into it; a heartbeat (no values) keeps
// the view's values. Only the home's first accepted push allocates, its
// view; every later push, accepted or dropped, allocates nothing. The
// trust engine sees every push, so a replay keeps costing its source
// trust.
//
//iot:hotpath
func (f *Fleet) push(h *Home, snap sensor.Snapshot) {
	now := f.now()
	at := epoch.EventTime(snap, now)
	if h.trust != nil {
		// Score on the device's event time when it carries one (the
		// behavioral fingerprint cares about the sensor's own timeline).
		h.trust.Observe(h.trustSource, snap, at)
	}
	var verdict epoch.Verdict
	if v := h.view.Load(); v != nil {
		verdict = v.ingest(snap, at, now)
	} else {
		verdict = h.firstPush(snap, at, now) //iot:allow hotcall once per home, on its first accepted push
	}
	if verdict != epoch.Accepted {
		f.metrics.observeDrop(verdict)
		return
	}
	f.metrics.observePush()
}

// authorizeHome judges one instruction on the home's stage and counts the
// outcome into the shard and anomaly families — the per-item hot path of
// AuthorizeBatch. It holds the home's view from reading it until the
// stage has decided, so no push rewrites the scene under the judge.
// Steady state (context pushed within budget) is one atomic view load,
// the view's lock, the shared judger's zero-allocation judge, a ring-log
// append and counter increments.
//
//iot:hotpath
//iot:failclosed
func (f *Fleet) authorizeHome(h *Home, in instr.Instruction) core.Decision {
	v := h.view.Load()
	if v != nil {
		v.mu.Lock()
	}
	snap, state := f.homeContext(h, v)
	dec := h.stage.Decide(in, snap, state, nil)
	if v != nil {
		v.mu.Unlock()
	}
	f.metrics.observeDecision(h.shardIdx, dec.Outcome)
	if dec.Outcome == core.OutcomeSeqAnomaly {
		f.seqAnoms.Add(1)
	}
	return dec
}

// SeqAnomalies reports how many sensitive instructions the sequence judge
// rejected fleet-wide after the static tree allowed them.
func (f *Fleet) SeqAnomalies() uint64 { return f.seqAnoms.Load() }

// homeContext is the fleet's context front end: it picks the snapshot the
// home's stage judges from the home's view v, whose lock the caller
// holds, and says how far to believe it. Steady state is the pushed view
// within the fleet's freshness budget. With no view, or a stale one, the
// last view (if any) is handed over marked missing or stale, so sensitive
// instructions fail closed and non-sensitive ones are still judged on
// whatever the home last pushed — the same bounded-staleness /
// fail-closed trade the single-home framework makes. A fresh push from a
// source below its trust threshold is low trust: a spoofed feed that
// keeps talking is the one degraded shape freshness budgets cannot see.
//
//iot:hotpath
func (f *Fleet) homeContext(h *Home, v *homeView) (sensor.Snapshot, core.ContextState) {
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

// BatchResult is one item's outcome: a Decision, or an Err for an unknown
// home, so one tenant's bad request cannot abort another tenant's traffic
// — batch-level errors are reserved for cancellation.
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
// shard or worker count. It is AuthorizeBatchInto with a new result slice.
func (f *Fleet) AuthorizeBatch(ctx context.Context, items []BatchItem, workers int) ([]BatchResult, error) {
	out := make([]BatchResult, len(items))
	if err := f.AuthorizeBatchInto(ctx, items, out, workers); err != nil || len(items) == 0 {
		return nil, err
	}
	return out, nil
}

// AuthorizeBatchInto is AuthorizeBatch writing item i's result into
// out[i]; out must be at least as long as items. An item whose out[i].Err
// is already set, such as one the caller rejected, is not there: its
// context is not pushed, and it is not judged, logged or counted. On an
// error (the context ended) out holds the results of the items judged
// before it.
//
//iot:failclosed
func (f *Fleet) AuthorizeBatchInto(ctx context.Context, items []BatchItem, out []BatchResult, workers int) error {
	out = out[:len(items)]
	o := orderPool.Get().(*batchOrder)
	defer o.put()
	if o.sort(f, items, out) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f.metrics.observeBatch(len(o.idx))
	return par.Do(len(o.runs)-1, workers, func(k int) error {
		for _, idx := range o.idx[o.runs[k]:o.runs[k+1]] {
			if err := ctx.Err(); err != nil {
				return err
			}
			it := &items[idx]
			h, ok := f.homeIn(o.shard[idx], it.Home)
			if !ok {
				out[idx] = BatchResult{Err: "unknown home " + it.Home}
				continue
			}
			if it.Context != nil {
				f.push(h, *it.Context) // a dropped push leaves the newer view to judge on
			}
			out[idx] = BatchResult{Decision: f.authorizeHome(h, it.In)}
		}
		return nil
	})
}

// batchOrder is a batch's items ordered by shard, pooled across batches:
// one stable counting sort of the indices of the items to judge, so each
// shard's items keep their input order and a worker walks one shard's
// run.
type batchOrder struct {
	shard []uint32 // shard[i] is item i's shard
	start []int    // per shard, where its run starts in idx (+1 slot while counting)
	idx   []int    // indices of the items to judge grouped by shard, input order within each
	runs  []int    // where each non-empty shard's run starts in idx, then len(idx)
}

var orderPool = sync.Pool{New: func() any { return new(batchOrder) }}

// maxPooledOrder bounds the items and shards a pooled batchOrder is sized
// for; one grown beyond it by an unusually large batch or fleet is left to
// the garbage collector.
const maxPooledOrder = 1 << 16

// sort orders by shard the items whose result out does not already set,
// and returns their count.
func (o *batchOrder) sort(f *Fleet, items []BatchItem, out []BatchResult) int {
	o.shard = slices.Grow(o.shard[:0], len(items))[:len(items)]
	o.start = slices.Grow(o.start[:0], len(f.shards)+1)[:len(f.shards)+1]
	clear(o.start)
	n := 0
	for i := range items {
		if out[i].Err == "" {
			si := f.shardIndex(items[i].Home)
			o.shard[i] = si
			o.start[si+1]++
			n++
		}
	}
	o.runs = o.runs[:0]
	for si := range f.shards {
		if o.start[si+1] > 0 {
			o.runs = append(o.runs, o.start[si])
		}
		o.start[si+1] += o.start[si]
	}
	o.runs = append(o.runs, n)
	o.idx = slices.Grow(o.idx[:0], n)[:n]
	for i, si := range o.shard {
		if out[i].Err == "" {
			o.idx[o.start[si]] = i
			o.start[si]++
		}
	}
	return n
}

// put returns o to the pool. It holds only indices, so nothing of one
// batch's tenants outlives it.
func (o *batchOrder) put() {
	if cap(o.idx) <= maxPooledOrder && cap(o.start) <= maxPooledOrder+1 {
		orderPool.Put(o)
	}
}
