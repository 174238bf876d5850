package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"iotsid/internal/epoch"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// Sentinel causes for push-path provenance: unlike the polling collector
// there is no per-collect error to carry, only the fact that pushes never
// arrived or stopped arriving.
var (
	errNeverPushed = errors.New("core: source has never pushed")
	errPushExpired = errors.New("core: source's last push is beyond its staleness budget")
)

// EpochCollectorConfig tunes an EpochCollector.
type EpochCollectorConfig struct {
	// Now is the read-side staleness clock; defaults to time.Now. It must
	// tick the same timeline as the store's publish clock — the collector
	// differences its reads against the store's per-source push stamps.
	Now func() time.Time
	// Trust, when non-nil, gates the steady path on every store source
	// being trusted (one atomic flag load per source — the hot path stays
	// allocation-free) and stamps degraded provenance with per-source
	// scores. The engine must declare every store source by name; feed it
	// observations via the store's Observe hook (epoch.Config.Observe).
	Trust *trust.Engine
}

// EpochCollector adapts an epoch.Store to the framework's collector
// contract: the push-based twin of MultiCollector. Where MultiCollector
// polls every vendor on each decision, EpochCollector dereferences the
// store's published view and derives provenance from per-source push ages
// — the same fresh/stale/missing vocabulary, the same fail-closed rules,
// with the collection round trip moved entirely off the decision path.
//
// Steady state (every source pushed within its FreshFor budget) returns
// the published snapshot and a shared pre-built all-fresh provenance:
// zero allocations, no locks, one atomic load. Only when some source has
// gone quiet does the read fall into the degraded path, which builds a
// real provenance describing who went stale or missing.
//
// One semantic difference from the polling collector is inherent to the
// architecture: values a now-missing source pushed earlier remain merged
// in the snapshot (a store cannot un-merge them). The provenance still
// reports the source missing, so sensitive instructions fail closed
// exactly as before; only non-sensitive judgments may see the lingering
// values.
type EpochCollector struct {
	store   *epoch.Store
	sources []epoch.SourceConfig
	now     func() time.Time
	trust   *trust.Engine
	// trustIdx[i] is source i's index in the trust engine.
	trustIdx []int

	// freshFor mirrors sources[i].FreshFor for a tight hot-path loop.
	freshFor []time.Duration
	// freshProv is the shared all-fresh provenance returned on the steady
	// path. Built once; callers must treat provenance as read-only (the
	// same contract MultiCollector's callers already honour).
	freshProv Provenance
}

var _ DetailedCollector = (*EpochCollector)(nil)

// NewEpochCollector builds a collector reading the given store. The
// source set and budgets come from the store's own declarations.
func NewEpochCollector(cfg EpochCollectorConfig, store *epoch.Store) (*EpochCollector, error) {
	if store == nil {
		return nil, fmt.Errorf("core: epoch collector needs a store")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	sources := store.Sources()
	c := &EpochCollector{
		store:     store,
		sources:   sources,
		now:       cfg.Now,
		freshFor:  make([]time.Duration, len(sources)),
		freshProv: make(Provenance, len(sources)),
	}
	for i, s := range sources {
		c.freshFor[i] = s.FreshFor
		c.freshProv[i] = SourceStatus{Name: s.Name, Required: s.Required, State: SourceFresh}
	}
	if cfg.Trust != nil {
		c.trust = cfg.Trust
		c.trustIdx = make([]int, len(sources))
		for i, s := range sources {
			idx, ok := cfg.Trust.Index(s.Name)
			if !ok {
				return nil, fmt.Errorf("core: trust engine does not declare epoch source %q", s.Name)
			}
			c.trustIdx[i] = idx
			// The shared steady-path provenance reports full trust: the
			// steady path is only taken while every source's trusted flag
			// holds, and exact scores are a degraded-path detail.
			c.freshProv[i].Trust = 1
		}
	}
	return c, nil
}

// CollectDetailed implements DetailedCollector. The steady-state path is
// one atomic view load plus a per-source age check against precomputed
// budgets — no allocation, no lock, no I/O.
//
//iot:hotpath
//iot:failclosed
func (c *EpochCollector) CollectDetailed(ctx context.Context) (sensor.Snapshot, Provenance, error) {
	if err := ctx.Err(); err != nil {
		return sensor.Snapshot{}, nil, err
	}
	v := c.store.View()
	now := c.now()
	for i := range c.freshFor {
		if p := v.PushedAt[i]; p.IsZero() || now.Sub(p) > c.freshFor[i] {
			return c.collectDegraded(v, now) //iot:allow hotcall degraded path, never taken steady-state; the AllocsPerRun gate proves the fresh path is 0-alloc
		}
	}
	if c.trust != nil {
		for _, ti := range c.trustIdx {
			if !c.trust.TrustedIdx(ti) {
				return c.collectDegraded(v, now) //iot:allow hotcall degraded path, never taken steady-state; the AllocsPerRun gate proves the fresh path is 0-alloc
			}
		}
	}
	return v.Snap, c.freshProv, nil
}

// collectDegraded is the cold path: at least one source has no
// fresh-budget push, so build a real provenance from push ages. It may
// allocate freely — by definition it only runs when the context is
// already degraded.
//
//iot:failclosed
func (c *EpochCollector) collectDegraded(v *epoch.View, now time.Time) (sensor.Snapshot, Provenance, error) {
	prov := make(Provenance, len(c.sources))
	served := 0
	for i, src := range c.sources {
		status := SourceStatus{Name: src.Name, Required: src.Required}
		switch p := v.PushedAt[i]; {
		case p.IsZero():
			status.State = SourceMissing
			status.Err = errNeverPushed.Error()
			status.cause = errNeverPushed
		default:
			age := now.Sub(p)
			switch {
			case age <= src.FreshFor:
				status.State = SourceFresh
				served++
			case src.Staleness > 0 && age <= src.Staleness:
				// Served from the merged view within budget: the push-world
				// equivalent of MultiCollector's last-good fallback.
				status.State = SourceStale
				status.Age = age
				served++
			default:
				status.State = SourceMissing
				status.Age = age
				status.Err = errPushExpired.Error()
				status.cause = errPushExpired
			}
		}
		if c.trust != nil {
			status.Trust = c.trust.ScoreIdx(c.trustIdx[i])
			status.LowTrust = !c.trust.TrustedIdx(c.trustIdx[i])
		}
		prov[i] = status
	}
	if served == 0 {
		return sensor.Snapshot{}, prov, fmt.Errorf("core: no live source in epoch store (epoch %d)", v.Epoch)
	}
	return v.Snap, prov, nil
}

// Collect implements Collector: the strict entry point, mirroring
// MultiCollector.Collect. A degraded-but-serviceable view is returned; a
// required source without a live push is an error.
func (c *EpochCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	snap, prov, err := c.CollectDetailed(ctx)
	if err != nil {
		return sensor.Snapshot{}, err
	}
	if missing := prov.MissingRequired(); len(missing) > 0 {
		cause := firstError(prov, missing)
		return sensor.Snapshot{}, fmt.Errorf("core: required source(s) %s have no live push: %w",
			strings.Join(missing, ", "), cause)
	}
	return snap, nil
}
