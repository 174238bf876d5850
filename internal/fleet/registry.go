// Package fleet scales the single-home detection framework of internal/core
// to a multi-tenant deployment: one server fronting a large population of
// smart homes. Three properties drive the design.
//
// Sharded per-home state: every home's mutable state (its pushed sensor
// context, its ring decision log, its optional pull collector and breaker)
// lives in exactly one shard, selected by a jump consistent hash of the
// home ID. Cross-home traffic therefore never contends on one mutex, and
// the steady-state authorization path holds no lock at all beyond the
// shard's read lock for the home lookup.
//
// Shared compiled models: the trained trees are per *device model*, not per
// home (every home with a window actuator judges against the same window
// tree), so the fleet holds exactly one compiled tree per model in a
// copy-on-write ModelRegistry regardless of home count. Hot-swapping a
// retrained model is one atomic pointer store; readers never block.
//
// Deterministic batching: AuthorizeBatch fans a mixed-home batch out across
// shards via internal/par while preserving input order per item and
// per-home instruction order, so a seeded request stream produces
// bit-identical decision streams at any shard or worker count.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// ModelRegistry is the fleet's per-device-model compiled-tree store, shared
// copy-on-write across every tenant. Reads are one atomic pointer load plus
// a map lookup — no lock, no allocation — so a million homes judging
// concurrently never serialise on the registry. Writers (model hot-swaps)
// clone the map under a mutex and publish the clone atomically.
type ModelRegistry struct {
	mu      sync.Mutex
	entries atomic.Pointer[map[dataset.Model]*core.Entry]
}

var _ core.ModelStore = (*ModelRegistry)(nil)

// NewModelRegistry seeds the registry from a trained feature memory. The
// entries are shared, not copied: the registry and the memory hand out the
// same compiled trees, which is the point — one tree per device model
// serves the whole fleet.
func NewModelRegistry(fm *core.FeatureMemory) (*ModelRegistry, error) {
	if fm == nil {
		return nil, fmt.Errorf("fleet: model registry needs a trained feature memory")
	}
	m := make(map[dataset.Model]*core.Entry)
	for _, model := range fm.Models() {
		if e, ok := fm.Entry(model); ok {
			m[model] = e
		}
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("fleet: feature memory holds no trained models")
	}
	r := &ModelRegistry{}
	r.entries.Store(&m)
	return r, nil
}

// Entry returns the shared compiled entry for a device model.
func (r *ModelRegistry) Entry(m dataset.Model) (*core.Entry, bool) {
	e, ok := (*r.entries.Load())[m]
	return e, ok
}

// Len reports how many device models the registry holds — by construction
// independent of how many homes share it.
func (r *ModelRegistry) Len() int {
	return len(*r.entries.Load())
}

// Models lists the held device models in Table VI order.
func (r *ModelRegistry) Models() []dataset.Model {
	cur := *r.entries.Load()
	out := make([]dataset.Model, 0, len(cur))
	for _, m := range dataset.Models() {
		if _, ok := cur[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// Swap publishes a new entry for one device model — the hot-swap path a
// future per-home personalization layer recompiles through. The entry must
// already be compiled (stored once through a FeatureMemory); in-flight
// judgments keep using the old tree until the atomic store lands, then
// every tenant sees the new one.
func (r *ModelRegistry) Swap(m dataset.Model, e *core.Entry) error {
	if e == nil || e.Compiled() == nil {
		return fmt.Errorf("fleet: swap for %s needs a compiled entry", m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.entries.Load()
	next := make(map[dataset.Model]*core.Entry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[m] = e
	r.entries.Store(&next)
	return nil
}

// Judge runs one device model's shared compiled tree on a live snapshot —
// the fleet-wide zero-allocation inference path (see core.JudgeModel).
//
//iot:hotpath
func (r *ModelRegistry) Judge(m dataset.Model, ctx sensor.Snapshot) (bool, error) {
	return core.JudgeModel(r, m, ctx)
}
