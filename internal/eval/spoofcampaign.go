package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// spoofScenario is one spoofing regime of the campaign. forge fabricates
// attack push k (0-based across establishment and firing) from the honest
// stream clean, as a pure function of k; a nil forge is the clean control,
// whose honest stream simply continues. replay marks pushes the epoch
// store drops as out of order; the trust engine still scores them.
type spoofScenario struct {
	Name   string
	forge  func(k int, clean func(i int) sensor.Snapshot) sensor.Snapshot
	replay bool
}

// spoofScenarios is the published spoofing campaign: the clean control
// plus the four attack families of §III-A's sensor-spoofing twin — an
// attacker who owns the push channel and fabricates fresh, well-typed
// context. The numeric families reuse the chaos layer's corruption modes
// on the air-quality feature.
var spoofScenarios = []spoofScenario{
	{Name: "clean"},
	// Replay: honest-looking values, event time running backwards from
	// the newest accepted push.
	{Name: "replay", replay: true, forge: func(k int, clean func(int) sensor.Snapshot) sensor.Snapshot {
		out := clean(spoofCleanPushes + k)
		out.At = clean(spoofCleanPushes - 2 - k).At
		return out
	}},
	// Slow drift: a per-push creep sized to evade the step envelope.
	{Name: "slow_drift", forge: corruptAirQuality(core.CorruptDrift, 5)},
	// Stuck-at: the last honest snapshot, frozen, with only the stamp
	// advancing — a pinned sensor or a dead cache replayed live.
	{Name: "stuck_at", forge: func(k int, clean func(int) sensor.Snapshot) sensor.Snapshot {
		out := clean(spoofCleanPushes - 1)
		out.At = clean(spoofCleanPushes + k).At
		return out
	}},
	// Spike: one impossible jump.
	{Name: "spike", forge: corruptAirQuality(core.CorruptSpike, 600)},
}

func corruptAirQuality(kind core.CorruptionKind, magnitude float64) func(int, func(int) sensor.Snapshot) sensor.Snapshot {
	corrupt := core.NumericCorruption(kind, sensor.FeatAirQuality, magnitude)
	return func(k int, clean func(int) sensor.Snapshot) sensor.Snapshot {
		return corrupt(k, clean(spoofCleanPushes+k))
	}
}

// SpoofScenarioResult tallies one spoofing scenario across its rounds.
// Legitimate attempts are sensitive instructions fired while the feed was
// honest (the post-baseline clean phase, plus the clean scenario's whole
// firing phase); attack attempts are those fired while it was spoofed,
// and an allowed one is an unsafe allow — the trust contract demands
// zero.
type SpoofScenarioResult struct {
	Name string `json:"name"`
	Counts
	// TrustViolations totals the engine's violation count.
	TrustViolations uint64 `json:"trust_violations"`
	// MinFinalScore is the lowest end-of-round trust score across rounds.
	MinFinalScore float64 `json:"min_final_score"`
	// TrustDigest fingerprints every round's full score trajectory
	// (FNV-64a over the float bits, folded in round order) — the
	// bit-identity witness the determinism test compares across worker
	// counts.
	TrustDigest string `json:"trust_digest"`
}

// SpoofCampaignResult is the spoofing campaign's outcome, one row per
// scenario in campaign order.
type SpoofCampaignResult struct {
	Rounds    int                   `json:"rounds"`
	Scenarios []SpoofScenarioResult `json:"scenarios"`
}

// Campaign phase lengths. Clean establishes the behavioral baseline
// (trust.Config default BaselineObs = 8) and then measures honest
// availability; the attacker then establishes the spoofed feed before
// firing sensitive instructions against the fabricated context.
const (
	spoofCleanPushes   = 12 // baseline (8) + post-baseline honest traffic
	spoofEstablish     = 12 // corrupted pushes before the attacker fires
	spoofFiringPushes  = 6  // corrupted pushes, each followed by a sensitive instruction
	spoofPushInterval  = 5 * time.Second
	spoofLegitFireFrom = 8 // first clean push index (0-based) that also fires
)

// SpoofCampaign runs every scenario for the given number of rounds.
// Each unit owns its trust engine, epoch store, framework, fake clock and
// a legal base scene seeded Seed+909+u.
func (s *Suite) SpoofCampaign(ctx context.Context, rounds int) (SpoofCampaignResult, error) {
	t, err := s.runCampaign(ctx, rounds, len(spoofScenarios), 1, func(ctx context.Context, sc int, u int64, out *unit) error {
		return s.spoofRound(ctx, spoofScenarios[sc], u, out)
	})
	if err != nil {
		return SpoofCampaignResult{}, err
	}
	res := SpoofCampaignResult{Rounds: rounds, Scenarios: make([]SpoofScenarioResult, len(spoofScenarios))}
	for i, sc := range spoofScenarios {
		r := SpoofScenarioResult{Name: sc.Name, Counts: t.scenarios[i].total(),
			MinFinalScore: math.Inf(1), TrustDigest: hexDigest(t.scenarios[i].digest)}
		for _, o := range t.units[i*rounds : (i+1)*rounds] {
			r.TrustViolations += o.trust.Violations
			r.MinFinalScore = math.Min(r.MinFinalScore, o.trust.Score)
		}
		res.Scenarios[i] = r
	}
	return res, nil
}

// spoofRound runs one self-contained round of one scenario against a
// push-path deployment whose trust engine scores every push and gates
// every decision. The unit digest
// folds the trust score after every push.
func (s *Suite) spoofRound(ctx context.Context, sc spoofScenario, u int64, out *unit) error {
	eng, err := trust.NewEngine(trust.Config{},
		trust.SourceConfig{Name: "feed", Required: true})
	if err != nil {
		return err
	}
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { return now }
	st, framework, err := s.pushFramework(clock, eng)
	if err != nil {
		return err
	}
	in, err := campaignRegistry.Build("window.open", "win-1", instr.OriginUnknown, nil)
	if err != nil {
		return err
	}

	// The honest stream: one legal base scene per round plus small
	// deterministic jitter, so the baseline learns a live sensor (never
	// bit-identical, small steps, stable envelope) and the scene stays
	// legal for the window tree.
	base, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(s.Config.Seed+909+u)))
	if err != nil {
		return err
	}
	t0 := now
	cleanSnap := func(i int) sensor.Snapshot {
		out := base.Clone()
		out.At = t0.Add(time.Duration(i) * spoofPushInterval)
		if v, ok := out.Number(sensor.FeatTempIndoor); ok {
			out.Set(sensor.FeatTempIndoor, sensor.Number(v+0.2*math.Sin(float64(i)*0.9)))
		}
		if v, ok := out.Number(sensor.FeatAirQuality); ok {
			out.Set(sensor.FeatAirQuality, sensor.Number(v+2*math.Cos(float64(i)*0.7)))
		}
		return out
	}
	spoofSnap := func(k int) sensor.Snapshot {
		if sc.forge == nil {
			return cleanSnap(spoofCleanPushes + k)
		}
		return sc.forge(k, cleanSnap)
	}

	c := &out.lanes[0]
	push := func(snap sensor.Snapshot) error {
		now = snap.At
		if err := st.Push("feed", snap); err != nil {
			// Replayed deltas are dropped by the store (out_of_order);
			// the trust engine has already scored them via the hook.
			if !sc.replay {
				return err
			}
		}
		score, _ := eng.Score("feed")
		out.digest ^= math.Float64bits(score)
		out.digest *= fnvPrime
		return nil
	}
	fire := func(attack bool) error {
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		dec, err := framework.Authorize(callCtx, in)
		cancel()
		if err != nil {
			return err
		}
		c.record(attack, dec.Allowed, dec.Reason)
		if attack && dec.Allowed {
			c.UnsafeAllows++
		}
		return nil
	}

	// Phase 1 — honest traffic: learn the baseline, then measure
	// availability on the live legal scene.
	for i := 0; i < spoofCleanPushes; i++ {
		if err := push(cleanSnap(i)); err != nil {
			return err
		}
		if i >= spoofLegitFireFrom {
			if err := fire(false); err != nil {
				return err
			}
		}
	}
	// Phase 2 — the attacker establishes the spoofed feed (no commands
	// yet: manipulation precedes the instruction it enables).
	for k := 0; k < spoofEstablish; k++ {
		if err := push(spoofSnap(k)); err != nil {
			return err
		}
	}
	// Phase 3 — firing: each fabricated push is followed by the
	// sensitive instruction it was built to enable. The replay family's
	// merged view is still the last honest (legal, fresh) scene, so only
	// the trust gate stands between the attacker and an allow.
	for k := 0; k < spoofFiringPushes; k++ {
		if err := push(spoofSnap(spoofEstablish + k)); err != nil {
			return err
		}
		if err := fire(sc.forge != nil); err != nil {
			return err
		}
	}
	out.trust = eng.Report()[0]
	return nil
}

// Table renders availability against safety per attack family, with the
// trust evidence alongside.
func (r SpoofCampaignResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spoofing campaign — %d rounds per scenario, sensitive instructions only\n", r.Rounds)
	fmt.Fprintf(&b, "  %-12s %6s %7s %12s %11s %10s %7s  %s\n",
		"scenario", "avail", "safety", "fail-closed", "violations", "min-score", "unsafe", "digest")
	for _, r := range r.Scenarios {
		fmt.Fprintf(&b, "  %-12s %5.1f%% %6.1f%% %12d %11d %10.3f %7d  %s\n",
			r.Name, 100*r.Availability(), 100*r.Safety(),
			r.FailClosed, r.TrustViolations, r.MinFinalScore, r.UnsafeAllows, r.TrustDigest)
	}
	return b.String()
}
