// Package epoch inverts sensor collection from poll to push: vendor
// sources push deltas into a copy-on-write snapshot that is published
// behind an atomic pointer with a monotonically increasing epoch. A
// decision point no longer pays a collector round trip — steady-state
// reads are one pointer dereference plus a per-source age check, while
// writers serialise on a mutex, merge the delta into a fresh immutable
// view and swap the pointer. All bookkeeping (counters, lag histogram,
// epoch gauge) lives on the write side so the read path stays
// allocation-free.
//
// Staleness is evaluated at read time against each source's last push:
// a source whose last push is older than its FreshFor budget is stale,
// and older than its Staleness budget is missing — the same
// fresh/stale/missing provenance vocabulary the poll-based degraded-mode
// collector uses, so the framework's fail-closed rules carry over
// unchanged (core.EpochCollector does the mapping).
package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// SourceConfig declares one pushing source and its freshness budgets.
type SourceConfig struct {
	// Name identifies the source in pushes and provenance.
	Name string
	// Required marks a source whose absence must fail sensitive
	// instructions closed (enforced by the reading collector, not the
	// store).
	Required bool
	// FreshFor is the push-cadence budget: a source whose last push is at
	// most this old counts fresh. Zero defaults to a minute.
	FreshFor time.Duration
	// Staleness is the absolute budget before the source counts missing;
	// between FreshFor and Staleness it is served stale. Zero disables the
	// stale band: past FreshFor the source goes straight to missing.
	Staleness time.Duration
}

// Config tunes a Store.
type Config struct {
	// Now is the publish clock stamping per-source push times; defaults to
	// time.Now. Readers difference their own clock against these stamps.
	Now func() time.Time
	// Metrics, when non-nil, instruments the write side: publishes and
	// drops per source, the current epoch, and the event-time lag of each
	// publish. Series are pre-registered per declared source; the read
	// path is never instrumented (it must stay allocation-free).
	Metrics *obs.Registry
	// Observe, when non-nil, receives every push attempt from a declared
	// source — accepted or dropped — with the resolved event time (the
	// store clock when the delta carried none). This is the trust
	// engine's tap: a replayed or null-valued delta is dropped from the
	// view but must still count against its source. Called under the
	// store's write lock, so observations arrive in publish order.
	Observe func(source string, delta sensor.Snapshot, at time.Time)
}

// View is one published immutable snapshot generation. Readers share it:
// the snapshot's value map and the PushedAt slice are frozen at publish
// time and must be treated as read-only.
type View struct {
	// Epoch increases by one per publish; 0 is the empty pre-push view.
	Epoch uint64
	// At is the newest event timestamp contributed by any push.
	At time.Time
	// Snap is the merged sensor context.
	Snap sensor.Snapshot
	// PushedAt records, per source in declaration order, the store-clock
	// time of that source's newest accepted push (zero = never pushed).
	PushedAt []time.Time
}

// Metric names the store owns (write side only).
const (
	metricPublishes = "iotsid_epoch_publishes_total"
	metricDrops     = "iotsid_epoch_drops_total"
	metricEpoch     = "iotsid_epoch_current"
	metricLag       = "iotsid_epoch_publish_lag_seconds"
)

// Drop reasons: the delta's event time ran backwards (a replay), or the
// delta carried an absent (JSON null) value for some feature.
const (
	dropOutOfOrder = "out_of_order"
	dropZeroValue  = "zero_value"
)

const (
	dropIdxOutOfOrder = iota
	dropIdxZeroValue
)

// storeMetrics holds the pre-registered write-side series.
type storeMetrics struct {
	publishes []*obs.Counter    // per source, declaration order
	drops     [][2]*obs.Counter // per source × drop reason
	epoch     *obs.Gauge
	lag       *obs.Histogram
}

// Store is the epoch-versioned snapshot store.
type Store struct {
	sources []SourceConfig
	byName  map[string]int
	now     func() time.Time
	observe func(source string, delta sensor.Snapshot, at time.Time)
	metrics *storeMetrics // nil = uninstrumented

	mu          sync.Mutex // serialises writers
	lastEventAt []time.Time
	cur         atomic.Pointer[View]
}

// NewStore validates the source declarations and publishes the empty
// epoch-0 view.
func NewStore(cfg Config, sources ...SourceConfig) (*Store, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("epoch: store needs at least one source")
	}
	byName := make(map[string]int, len(sources))
	for i := range sources {
		s := &sources[i]
		if s.Name == "" {
			return nil, fmt.Errorf("epoch: source %d has no name", i)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("epoch: duplicate source %q", s.Name)
		}
		if s.FreshFor <= 0 {
			s.FreshFor = time.Minute
		}
		if s.Staleness != 0 && s.Staleness < s.FreshFor {
			return nil, fmt.Errorf("epoch: source %q staleness %v below its fresh budget %v",
				s.Name, s.Staleness, s.FreshFor)
		}
		byName[s.Name] = i
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	st := &Store{
		sources:     sources,
		byName:      byName,
		now:         cfg.Now,
		observe:     cfg.Observe,
		lastEventAt: make([]time.Time, len(sources)),
	}
	if cfg.Metrics != nil {
		pubs := cfg.Metrics.NewCounterVec(metricPublishes,
			"Accepted delta publishes into the epoch snapshot store, per source.",
			"source")
		drops := cfg.Metrics.NewCounterVec(metricDrops,
			"Deltas dropped before publish, per source and reason (out_of_order: replayed event timestamp; zero_value: absent/null feature value).",
			"source", "reason")
		m := &storeMetrics{
			epoch: cfg.Metrics.NewGauge(metricEpoch,
				"Epoch of the currently published snapshot view."),
			lag: cfg.Metrics.NewHistogram(metricLag,
				"Publish-clock minus event-clock lag of each accepted delta, seconds.",
				obs.LatencyBuckets),
		}
		for _, s := range sources {
			m.publishes = append(m.publishes, pubs.With(s.Name))
			m.drops = append(m.drops, [2]*obs.Counter{
				drops.With(s.Name, dropOutOfOrder),
				drops.With(s.Name, dropZeroValue),
			})
		}
		st.metrics = m
	}
	st.cur.Store(&View{Epoch: 0, Snap: sensor.NewSnapshot(time.Time{}),
		PushedAt: make([]time.Time, len(sources))})
	return st, nil
}

// Sources returns a copy of the declared source configurations, in
// declaration order.
func (s *Store) Sources() []SourceConfig {
	out := make([]SourceConfig, len(s.sources))
	copy(out, s.sources)
	return out
}

// View returns the currently published snapshot view. The hot read path:
// one atomic pointer load, nothing else.
//
//iot:hotpath
func (s *Store) View() *View {
	return s.cur.Load()
}

// Push merges a delta from the named source into a new view and publishes
// it. Delta semantics: the delta's values overwrite the published ones,
// untouched features persist, and the view timestamp is the max of the
// contributed event times. A delta stamped with a zero time is stamped
// with the store clock. Two delta classes are dropped (reported via the
// reason-labeled drop counter, not an error): an event time older than
// the source's newest accepted event (a byzantine source replaying
// history must not roll the context back), and a delta carrying an
// absent (JSON null) value for any feature (a null must not shadow a
// real reading in the merged view). An empty delta is a liveness
// heartbeat: it refreshes the source's push time without touching any
// value. Every attempt — accepted or dropped — reaches the Observe
// hook, so a trust engine sees exactly what the source tried to say.
func (s *Store) Push(source string, delta sensor.Snapshot) error {
	i, ok := s.byName[source]
	if !ok {
		return fmt.Errorf("epoch: unknown source %q", source)
	}
	now := s.now()
	at := delta.At
	if at.IsZero() {
		at = now
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.observe != nil {
		s.observe(source, delta, at)
	}
	if at.Before(s.lastEventAt[i]) {
		if s.metrics != nil {
			s.metrics.drops[i][dropIdxOutOfOrder].Inc()
		}
		return nil
	}
	zero := false
	delta.Range(func(_ sensor.Feature, v sensor.Value) bool {
		zero = v.IsZero()
		return !zero
	})
	if zero {
		if s.metrics != nil {
			s.metrics.drops[i][dropIdxZeroValue].Inc()
		}
		return nil
	}
	s.lastEventAt[i] = at
	cur := s.cur.Load()
	next := &View{
		Epoch:    cur.Epoch + 1,
		At:       cur.At,
		Snap:     cur.Snap.Merge(delta),
		PushedAt: make([]time.Time, len(cur.PushedAt)),
	}
	copy(next.PushedAt, cur.PushedAt)
	next.PushedAt[i] = now
	if at.After(next.At) {
		next.At = at
	}
	next.Snap.At = next.At
	s.cur.Store(next)
	if s.metrics != nil {
		s.metrics.publishes[i].Inc()
		s.metrics.epoch.Set(int64(next.Epoch))
		lag := now.Sub(at).Seconds()
		if lag < 0 {
			lag = 0
		}
		s.metrics.lag.Observe(lag)
	}
	return nil
}
