package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/par"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// SourceState is the provenance of one source's contribution to a merged
// snapshot.
type SourceState string

// The three provenance states: the source answered this collect (fresh),
// the source failed but its last-good snapshot was served within the
// staleness budget (stale), or the source contributed nothing (missing).
const (
	SourceFresh   SourceState = "fresh"
	SourceStale   SourceState = "stale"
	SourceMissing SourceState = "missing"
)

// SourceStatus is one source's row in a snapshot's provenance.
type SourceStatus struct {
	Name     string      `json:"name"`
	Required bool        `json:"required"`
	State    SourceState `json:"state"`
	// Age is how long ago the served data was collected — zero when fresh.
	Age time.Duration `json:"age,omitempty"`
	// Err is the collect failure that forced a stale or missing state.
	Err string `json:"err,omitempty"`
	// Trust is the source's behavioral trust score at collect time
	// (1 = fully trusted); populated only when a trust engine is wired.
	Trust float64 `json:"trust,omitempty"`
	// LowTrust marks a source whose score sits below the engine's
	// threshold: its data is fresh but not believable.
	LowTrust bool `json:"low_trust,omitempty"`
	// cause keeps the concrete error value so the strict Collect path can
	// wrap it (errors.As reaches breaker OpenErrors through the chain).
	cause error
}

// Provenance records, per source in declaration order, where each part of
// a merged snapshot came from — the degraded-mode evidence the framework
// uses to fail closed on sensitive instructions.
type Provenance []SourceStatus

// MissingRequired lists the required sources that contributed nothing.
func (p Provenance) MissingRequired() []string {
	var out []string
	for _, s := range p {
		if s.Required && s.State == SourceMissing {
			out = append(out, s.Name)
		}
	}
	return out
}

// LowTrustRequired lists the required sources whose trust score is below
// threshold — fresh data the engine no longer believes.
func (p Provenance) LowTrustRequired() []string {
	var out []string
	for _, s := range p {
		if s.Required && s.LowTrust {
			out = append(out, s.Name)
		}
	}
	return out
}

// Degraded reports whether any source is stale, missing or low-trust.
func (p Provenance) Degraded() bool {
	for _, s := range p {
		if s.State != SourceFresh || s.LowTrust {
			return true
		}
	}
	return false
}

// DetailedCollector is a Collector that can additionally report per-source
// provenance. Framework.Authorize prefers this path: it lets a degraded
// context still serve non-sensitive instructions while sensitive ones fail
// closed.
type DetailedCollector interface {
	Collector
	CollectDetailed(ctx context.Context) (sensor.Snapshot, Provenance, error)
}

// Source declares one collector feeding the merged context.
type Source struct {
	// Name identifies the source in provenance and health reports.
	Name string
	// Collector produces this source's snapshot.
	Collector Collector
	// Required marks a source whose absence must fail sensitive
	// instructions closed; optional sources merely degrade the context.
	Required bool
	// Staleness is the budget for serving this source's last-good snapshot
	// when a fresh collect fails; zero disables the fallback.
	Staleness time.Duration
	// Retry, when non-nil, retries failed collects under the shared policy.
	Retry *resilience.Policy
	// Breaker, when non-nil, guards the source: while open, collects are
	// skipped entirely (the last-good fallback still applies).
	Breaker *resilience.Breaker
}

// MultiConfig tunes a MultiCollector.
type MultiConfig struct {
	// Now is the staleness clock; defaults to time.Now.
	Now func() time.Time
	// Health, when non-nil, receives per-source state after every collect —
	// the registry the cloud's /healthz reports.
	Health *resilience.Registry
	// HistoryLen bounds the per-source last-good history (default 8).
	HistoryLen int
	// Metrics, when non-nil, counts per-source provenance outcomes
	// (fresh/stale/missing) and retry attempts. Series are pre-registered
	// per declared source, so the collect path never does a label lookup.
	Metrics *obs.Registry
	// Trust, when non-nil, scores every fresh collect through the
	// behavioral trust engine (which must declare every source by name)
	// and stamps the provenance with per-source scores. Note the engine
	// sits *above* any caching collector: a cache legitimately serving
	// one snapshot repeatedly will trip the engine's stuck-at (dwell)
	// fingerprint by design — wire trust on raw feeds.
	Trust *trust.Engine
}

// MultiCollector merges several vendor sources into one context, later
// sources overriding earlier ones on shared features — the paper's
// "communication module for acquiring sensor data based on Xiaomi and
// Samsung devices" as a single logical collector, hardened for the
// production failure model:
//
//   - Sources are declared required or optional.
//   - A failed source falls back to its last-good snapshot when that
//     snapshot is younger than the source's staleness budget.
//   - The merged snapshot carries per-source provenance (fresh / stale /
//     missing) so the framework can fail closed on sensitive instructions
//     whenever a required source is missing.
//   - Per-source breakers stop hammering a dead gateway, and the optional
//     health registry surfaces the whole picture at /healthz.
//
// The vendor polls run concurrently; the merge happens in declaration
// order afterwards, so the merged snapshot is identical for any scheduling.
type MultiCollector struct {
	sources []Source
	now     func() time.Time
	health  *resilience.Registry
	trust   *trust.Engine
	// trustIdx[i] is source i's index in the trust engine.
	trustIdx []int

	// stateCounters[i] holds source i's pre-registered fresh/stale/missing
	// counters (indexed by provenanceIdx); nil when uninstrumented.
	stateCounters [][3]*obs.Counter

	mu      sync.Mutex
	history []*sensor.History // per-source last-good snapshots
	lastAt  []time.Time       // collection clock stamp of the newest history entry
	hasLast []bool
}

// provenanceIdx maps a SourceState onto the counter triple.
func provenanceIdx(s SourceState) int {
	switch s {
	case SourceFresh:
		return 0
	case SourceStale:
		return 1
	default:
		return 2
	}
}

var _ DetailedCollector = (*MultiCollector)(nil)

// NewMultiCollector validates the source declarations and builds the
// collector.
func NewMultiCollector(cfg MultiConfig, sources ...Source) (*MultiCollector, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: multi collector needs at least one source")
	}
	seen := make(map[string]bool, len(sources))
	for i, s := range sources {
		if s.Name == "" {
			return nil, fmt.Errorf("core: multi collector source %d has no name", i)
		}
		if s.Collector == nil {
			return nil, fmt.Errorf("core: multi collector source %q has no collector", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("core: duplicate multi collector source %q", s.Name)
		}
		seen[s.Name] = true
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = 8
	}
	m := &MultiCollector{
		sources: sources,
		now:     cfg.Now,
		health:  cfg.Health,
		trust:   cfg.Trust,
		history: make([]*sensor.History, len(sources)),
		lastAt:  make([]time.Time, len(sources)),
		hasLast: make([]bool, len(sources)),
	}
	if cfg.Trust != nil {
		m.trustIdx = make([]int, len(sources))
		for i, s := range sources {
			idx, ok := cfg.Trust.Index(s.Name)
			if !ok {
				return nil, fmt.Errorf("core: trust engine does not declare source %q", s.Name)
			}
			m.trustIdx[i] = idx
		}
	}
	for i, s := range sources {
		m.history[i] = sensor.NewHistory(cfg.HistoryLen)
		if m.health != nil {
			m.health.Register(s.Name, s.Required)
		}
	}
	if cfg.Metrics != nil {
		states := cfg.Metrics.NewCounterVec(metricSourceState,
			"Per-source provenance of each merged collect: fresh, stale (last-good within budget) or missing.",
			"source", "state")
		retries := cfg.Metrics.NewCounterVec(metricRetries,
			"Retry attempts (attempt index > 0) against a source's collector.",
			"source")
		m.stateCounters = make([][3]*obs.Counter, len(sources))
		for i, s := range sources {
			m.stateCounters[i] = [3]*obs.Counter{
				states.With(s.Name, string(SourceFresh)),
				states.With(s.Name, string(SourceStale)),
				states.With(s.Name, string(SourceMissing)),
			}
			if s.Retry != nil {
				// Chain the retry counter onto the caller's policy without
				// mutating their value: the collector owns this copy.
				p := *s.Retry
				counter := retries.With(s.Name)
				prev := p.OnAttempt
				p.OnAttempt = func(attempt int) {
					if attempt > 0 {
						counter.Inc()
					}
					if prev != nil {
						prev(attempt)
					}
				}
				m.sources[i].Retry = &p
			}
		}
	}
	return m, nil
}

// Collect implements Collector: the strict entry point. Degraded-but-
// serviceable contexts (every required source fresh or within budget) are
// returned; a missing required source is an error, wrapping the source's
// failure so breaker-open conditions (with their retry-after) surface to
// the serving layer.
func (m *MultiCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	snap, prov, err := m.CollectDetailed(ctx)
	if err != nil {
		return sensor.Snapshot{}, err
	}
	if missing := prov.MissingRequired(); len(missing) > 0 {
		cause := firstError(prov, missing)
		if cause != nil {
			return sensor.Snapshot{}, fmt.Errorf("core: required source(s) %s unavailable: %w",
				strings.Join(missing, ", "), cause)
		}
		return sensor.Snapshot{}, fmt.Errorf("core: required source(s) %s unavailable",
			strings.Join(missing, ", "))
	}
	return snap, nil
}

// firstError returns the error of the lowest-declared missing source.
func firstError(prov Provenance, missing []string) error {
	for _, s := range prov {
		for _, name := range missing {
			if s.Name == name && s.cause != nil {
				return s.cause
			}
		}
	}
	return nil
}

// CollectDetailed implements DetailedCollector: it polls every source
// concurrently, applies retry policies and breakers, serves bounded-stale
// fallbacks, and returns the merged snapshot with its provenance. The
// returned error is non-nil only when not a single source contributed —
// there is no context at all to judge against.
func (m *MultiCollector) CollectDetailed(ctx context.Context) (sensor.Snapshot, Provenance, error) {
	n := len(m.sources)
	type result struct {
		snap sensor.Snapshot
		err  error
	}
	// The fan-out runs without m.mu; only the history/fallback bookkeeping
	// below is serialised.
	results, _ := par.Map(n, n, func(i int) (result, error) {
		src := m.sources[i]
		if src.Breaker != nil {
			if err := src.Breaker.Allow(); err != nil {
				return result{err: err}, nil
			}
		}
		var snap sensor.Snapshot
		var err error
		collect := func(ctx context.Context) error {
			s, e := src.Collector.Collect(ctx)
			if e != nil {
				return e
			}
			snap = s
			return nil
		}
		if src.Retry != nil {
			err = src.Retry.Do(ctx, collect)
		} else {
			err = collect(ctx)
		}
		if src.Breaker != nil {
			src.Breaker.Record(err)
		}
		if err != nil {
			return result{err: fmt.Errorf("core: source %q: %w", src.Name, err)}, nil
		}
		return result{snap: snap}, nil
	})

	now := m.now()
	prov := make(Provenance, n)
	merged := sensor.NewSnapshot(time.Time{})
	served := 0

	m.mu.Lock()
	for i, src := range m.sources {
		res := results[i]
		status := SourceStatus{Name: src.Name, Required: src.Required}
		switch {
		case res.err == nil:
			status.State = SourceFresh
			if m.trust != nil {
				// Score the raw collect under the merge lock so the
				// observation order matches declaration order. The event
				// time is the snapshot's own stamp (a spoofer replaying
				// history is caught); an unstamped snapshot falls back to
				// the collect clock.
				at := res.snap.At
				if at.IsZero() {
					at = now
				}
				m.trust.Observe(src.Name, res.snap, at)
			}
			// Out-of-order pushes (a byzantine source replaying old
			// timestamps) are ignored; the fallback keeps the newer one.
			_ = m.history[i].Push(res.snap)
			m.lastAt[i] = now
			m.hasLast[i] = true
		default:
			status.Err = res.err.Error()
			status.cause = res.err
			last, ok := m.history[i].Latest()
			age := now.Sub(m.lastAt[i])
			if ok && m.hasLast[i] && src.Staleness > 0 && age <= src.Staleness {
				status.State = SourceStale
				status.Age = age
				res.snap = last
				res.err = nil
			} else {
				status.State = SourceMissing
			}
		}
		if res.err == nil {
			merged = merged.Merge(res.snap)
			served++
		}
		if m.trust != nil {
			status.Trust = m.trust.ScoreIdx(m.trustIdx[i])
			status.LowTrust = !m.trust.TrustedIdx(m.trustIdx[i])
		}
		prov[i] = status
		if m.stateCounters != nil {
			m.stateCounters[i][provenanceIdx(status.State)].Inc()
		}
		if m.health != nil {
			m.health.Report(src.Name, string(status.State), breakerState(src.Breaker), now, status.cause)
		}
	}
	m.mu.Unlock()

	// The merged timestamp is the max of the contributing snapshots'
	// timestamps (a regression against the old time.Time{} stamping); with
	// no contributors at all there is no context to serve.
	if served == 0 {
		cause := firstError(prov, missingNames(prov))
		if cause != nil {
			return sensor.Snapshot{}, prov, fmt.Errorf("core: every source failed: %w", cause)
		}
		return sensor.Snapshot{}, prov, errors.New("core: every source failed")
	}
	return merged, prov, nil
}

func missingNames(prov Provenance) []string {
	var out []string
	for _, s := range prov {
		if s.State == SourceMissing {
			out = append(out, s.Name)
		}
	}
	return out
}

func breakerState(b *resilience.Breaker) string {
	if b == nil {
		return ""
	}
	return b.State().String()
}
