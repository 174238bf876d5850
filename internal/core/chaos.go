package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"iotsid/internal/sensor"
)

// FaultKind is one injected collector fault.
type FaultKind int

// The fault classes of the campaign: none (pass through), error (the
// collect fails immediately — a 5xx or RPC error), hang (the collect
// blocks until the caller's deadline fires — a dropped or delayed
// datagram), and byzantine (the collect succeeds but the snapshot is
// corrupted — a spoofing or bit-flipping source).
const (
	FaultNone FaultKind = iota
	FaultError
	FaultHang
	FaultByzantine
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultHang:
		return "hang"
	case FaultByzantine:
		return "byzantine"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// ChaosCollector wraps a Collector with a deterministic fault plan — the
// fault-injection harness of the resilience campaign. The i-th Collect
// call suffers Plan(i); the plan is a pure function of the call index, so
// a campaign round replays bit-identically regardless of scheduling.
type ChaosCollector struct {
	// Inner is the healthy collector underneath.
	Inner Collector
	// Plan maps the 0-based call index to the fault it suffers; nil means
	// no faults.
	Plan func(call int) FaultKind
	// Corrupt transforms the snapshot for byzantine faults; nil flips every
	// boolean feature (a plausible-but-wrong context).
	Corrupt func(s sensor.Snapshot) sensor.Snapshot
	// CorruptAt, when non-nil, takes precedence over Corrupt and
	// additionally receives the 0-based call index, so stateful-looking
	// corruptions (slow drift, stuck-at) stay pure functions of the call
	// sequence — see NumericCorruption.
	CorruptAt func(call int, s sensor.Snapshot) sensor.Snapshot

	calls atomic.Int64
}

var _ Collector = (*ChaosCollector)(nil)

// Calls returns how many Collect calls the chaos layer has seen.
func (c *ChaosCollector) Calls() int { return int(c.calls.Load()) }

// Collect implements Collector.
func (c *ChaosCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	if c.Inner == nil {
		return sensor.Snapshot{}, fmt.Errorf("core: chaos collector has no inner collector")
	}
	call := int(c.calls.Add(1) - 1)
	fault := FaultNone
	if c.Plan != nil {
		fault = c.Plan(call)
	}
	switch fault {
	case FaultError:
		return sensor.Snapshot{}, fmt.Errorf("core: chaos: injected error on call %d", call)
	case FaultHang:
		// A dropped packet: nothing ever arrives. The collect ends at once
		// as the caller's deadline would end it, so a campaign plays hangs
		// out without the wall clock, and no call that was not planned to
		// hang can time out in a hang's place on a slow host.
		return sensor.Snapshot{}, fmt.Errorf("core: chaos: hang on call %d: %w", call, context.DeadlineExceeded)
	case FaultByzantine:
		snap, err := c.Inner.Collect(ctx)
		if err != nil {
			return sensor.Snapshot{}, err
		}
		if c.CorruptAt != nil {
			return c.CorruptAt(call, snap), nil
		}
		if c.Corrupt != nil {
			return c.Corrupt(snap), nil
		}
		return flipBools(snap), nil
	default:
		return c.Inner.Collect(ctx)
	}
}

// flipBools is the default byzantine corruption: every boolean feature is
// inverted, yielding a type-valid but physically inconsistent context.
func flipBools(s sensor.Snapshot) sensor.Snapshot {
	out := s.Clone()
	s.Range(func(f sensor.Feature, v sensor.Value) bool {
		if b, ok := v.Bool(); ok {
			out.Set(f, sensor.Bool(!b))
		}
		return true
	})
	return out
}

// CorruptionKind selects a numeric corruption mode for byzantine faults —
// the sensor-spoofing attack families the trust engine must catch.
type CorruptionKind int

// The numeric corruption modes: spike slams the feature far outside any
// honest envelope in one report, stuck freezes it at a seeded constant
// (a dead or pinned sensor), and drift creeps it away a little more per
// call — small enough to pass step checks, cumulative enough to walk
// the context wherever the attacker wants.
const (
	CorruptSpike CorruptionKind = iota + 1
	CorruptStuck
	CorruptDrift
)

// String implements fmt.Stringer.
func (k CorruptionKind) String() string {
	switch k {
	case CorruptSpike:
		return "spike"
	case CorruptStuck:
		return "stuck"
	case CorruptDrift:
		return "drift"
	}
	return fmt.Sprintf("corruption(%d)", int(k))
}

// NumericCorruption builds a CorruptAt transform targeting one numeric
// feature. The magnitude parameter is the spike offset, the stuck-at
// constant, or the per-call drift rate respectively. The transform is a
// pure function of (call, snapshot): replaying a call index replays the
// corruption bit-identically, so chaos campaigns stay deterministic at
// any worker count. Snapshots without the feature pass through untouched.
func NumericCorruption(kind CorruptionKind, feature sensor.Feature, magnitude float64) func(call int, s sensor.Snapshot) sensor.Snapshot {
	return func(call int, s sensor.Snapshot) sensor.Snapshot {
		v, ok := s.Number(feature)
		if !ok {
			return s
		}
		out := s.Clone()
		switch kind {
		case CorruptSpike:
			out.Set(feature, sensor.Number(v+magnitude))
		case CorruptStuck:
			out.Set(feature, sensor.Number(magnitude))
		case CorruptDrift:
			out.Set(feature, sensor.Number(v+magnitude*float64(call+1)))
		}
		return out
	}
}

// ChaosPlan builds a seeded stochastic fault plan: call i draws its fault
// from the weighted classes using a generator seeded by seed+i, so the
// plan is a pure function of (seed, index) — deterministic under any call
// interleaving of the surrounding campaign.
func ChaosPlan(seed int64, pError, pHang, pByzantine float64) func(call int) FaultKind {
	return func(call int) FaultKind {
		u := rand.New(rand.NewSource(seed + int64(call))).Float64()
		switch {
		case u < pError:
			return FaultError
		case u < pError+pHang:
			return FaultHang
		case u < pError+pHang+pByzantine:
			return FaultByzantine
		default:
			return FaultNone
		}
	}
}
