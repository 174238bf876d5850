package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// AttackType names one attack class of the campaign.
type AttackType string

// The campaign's attack classes — one per evaluated device model, each
// staged from that model's attack-scene generator and delivered as the
// model's sensitive control instruction. Note tv_scare: TV control never
// crossed the questionnaire's 50 % high-threat bar (Table III), so the
// sensitive command detector waves it through untouched — the campaign
// keeps it to expose that scope boundary of the paper's design.
const (
	AttackWindowBurglary AttackType = "window_burglary"
	AttackAirconWaste    AttackType = "aircon_energy_waste"
	AttackLightCasing    AttackType = "light_casing"
	AttackCurtainPrivacy AttackType = "curtain_privacy"
	AttackTVScare        AttackType = "tv_scare"
	AttackCookerFire     AttackType = "cooker_fire_risk"
)

// campaignAttacks binds each attack type to its model and instruction.
var campaignAttacks = []struct {
	Type   AttackType
	Model  dataset.Model
	Op     string
	Device string
}{
	{AttackWindowBurglary, dataset.ModelWindow, "window.open", "window-1"},
	{AttackAirconWaste, dataset.ModelAircon, "aircon.set_cool", "aircon-1"},
	{AttackLightCasing, dataset.ModelLight, "light.on", "light-1"},
	{AttackCurtainPrivacy, dataset.ModelCurtain, "curtain.open", "curtain-1"},
	{AttackTVScare, dataset.ModelTV, "tv.on", "tv-1"},
	{AttackCookerFire, dataset.ModelKitchen, "cooker.start", "cooker-1"},
}

// attackEnv is one unit's environment for the attack mix: a private home
// to stage scenes in, and the hook judging an instruction against it.
type attackEnv struct {
	home *home.Home
	// decide may add the environment's own evidence to c. ok is false for
	// a command that got no decision; an error aborts the unit.
	decide func(ctx context.Context, in instr.Instruction, c *Counts) (dec core.Decision, ok bool, err error)
}

// attackMix is the attack and fault rows' mix: per attack class, in
// order, fire its instruction from an attack scene and then from a legal
// one (the legitimate twin), executing what is allowed. sensitiveOnly
// skips classes the detector does not escalate, drawing nothing from rng.
func attackMix(ctx context.Context, env attackEnv, rng *rand.Rand, sensitiveOnly bool, out *unit) error {
	detector, err := campaignDetector()
	if err != nil {
		return err
	}
	for i, a := range campaignAttacks {
		in, err := campaignRegistry.Build(a.Op, a.Device, instr.OriginUnknown, nil)
		if err != nil {
			return err
		}
		if sensitiveOnly && !detector.IsSensitive(in) {
			continue
		}
		for _, attack := range [2]bool{true, false} {
			stage := dataset.LegalScene
			if attack {
				stage = dataset.AttackScene
			}
			scene, err := stage(a.Model, rng)
			if err != nil {
				return err
			}
			env.home.Env().Apply(scene)
			dec, ok, err := env.decide(ctx, in, &out.lanes[i])
			if err != nil {
				return err
			}
			if !ok {
				out.undecided(i, attack)
				continue
			}
			out.decide(i, attack, dec.Allowed, dec.Reason)
			out.decisions = append(out.decisions, dec)
			if dec.Allowed {
				if err := env.home.Execute(in); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// polledEnv is the baseline: every Authorize polls the round's home.
func (s *Suite) polledEnv(h *home.Home) (*core.Framework, func() error, error) {
	fw, err := s.framework(&core.SimCollector{Env: h.Env()}, nil)
	return fw, func() error { return nil }, err
}

// epochEnv is the event-driven path, clocked by the home's simulated
// time: every staged scene is pushed before the decision, standing in for
// the vendor event stream. Staging never advances the clock, so this
// measures decision equivalence, not staleness.
func (s *Suite) epochEnv(h *home.Home) (*core.Framework, func() error, error) {
	store, fw, err := s.pushFramework(h.Env().Now, nil)
	return fw, func() error { return store.Push("feed", h.Env().Snapshot()) }, err
}

// pushFramework builds the push path over one required source, "feed":
// an epoch store (an hour's freshness budget) read by an epoch collector.
// A non-nil eng scores every push attempt and gates the collector.
func (s *Suite) pushFramework(now func() time.Time, eng *trust.Engine) (*epoch.Store, *core.Framework, error) {
	cfg := epoch.Config{Now: now}
	if eng != nil {
		cfg.Observe = func(src string, d sensor.Snapshot, at time.Time) { eng.Observe(src, d, at) }
	}
	store, err := epoch.NewStore(cfg, epoch.SourceConfig{Name: "feed", Required: true, FreshFor: time.Hour})
	if err != nil {
		return nil, nil, err
	}
	collector, err := core.NewEpochCollector(core.EpochCollectorConfig{Now: now, Trust: eng}, store)
	if err != nil {
		return nil, nil, err
	}
	fw, err := s.framework(collector, nil)
	return store, fw, err
}

// runAttack runs the attack row over one collection path: a unit per
// round, each with a standard home (Seed+101) and a scene generator seeded
// Seed+202+round. build returns the round's framework over its home and
// the sync hook run after every staged scene.
func (s *Suite) runAttack(ctx context.Context, rounds int,
	build func(*home.Home) (*core.Framework, func() error, error)) (tally, error) {
	return s.runCampaign(ctx, rounds, 1, len(campaignAttacks), func(ctx context.Context, _ int, round int64, out *unit) error {
		h, err := home.NewStandard(home.EnvConfig{Seed: s.Config.Seed + 101})
		if err != nil {
			return err
		}
		framework, sync, err := build(h)
		if err != nil {
			return err
		}
		env := attackEnv{home: h, decide: func(ctx context.Context, in instr.Instruction, _ *Counts) (core.Decision, bool, error) {
			if err := sync(); err != nil {
				return core.Decision{}, false, err
			}
			dec, err := framework.Authorize(ctx, in)
			return dec, err == nil, err
		}}
		return attackMix(ctx, env, rand.New(rand.NewSource(s.Config.Seed+202+round)), false, out)
	})
}

// CampaignResult is the outcome of the attack campaign.
type CampaignResult struct {
	Rounds  int                   `json:"rounds"`
	PerType map[AttackType]Counts `json:"per_type"`
	// Counts totals every class.
	Counts
	// Digest folds every decision (seqFold) per round, then the rounds.
	Digest string `json:"digest"`
}

func attackResult(rounds int, t tally) CampaignResult {
	r := CampaignResult{Rounds: rounds, PerType: make(map[AttackType]Counts, len(campaignAttacks)),
		Counts: t.scenarios[0].total(), Digest: hexDigest(t.digest)}
	for i, a := range campaignAttacks {
		r.PerType[a.Type] = t.scenarios[0].lanes[i]
	}
	return r
}

// Campaign runs a mixed attack campaign against a live deployment: per
// round, every attack type stages its context in the home and fires its
// sensitive instruction through the IDS gate; interleaved, legitimate
// commands are issued from legal scenes. The campaign aborts on the first
// judgment error.
func (s *Suite) Campaign(ctx context.Context, rounds int) (CampaignResult, error) {
	t, err := s.runAttack(ctx, rounds, s.polledEnv)
	if err != nil {
		return CampaignResult{}, err
	}
	return attackResult(rounds, t), nil
}

// Table renders the per-class interception table, classes in firing order.
func (r CampaignResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attack campaign — %d rounds across six attack classes\n", r.Rounds)
	for _, a := range campaignAttacks {
		c := r.PerType[a.Type]
		fmt.Fprintf(&b, "  %-24s blocked %3d/%3d (%.0f%%), false blocks %d/%d\n", a.Type, c.Blocked, c.Attempts,
			100*c.Safety(), c.LegitBlocked, c.LegitAttempts)
	}
	fmt.Fprintf(&b, "  overall interception %.1f%%, legitimate commands wrongly blocked %.1f%%\n",
		100*r.Safety(), 100*r.FalseBlockRate())
	return b.String()
}

// CampaignComparison is the head-to-head outcome of the same seeded
// campaign run through the polled and the event-driven collection paths.
type CampaignComparison struct {
	Polled CampaignResult `json:"polled"`
	Epoch  CampaignResult `json:"epoch"`
	// Identical reports whether every decision — not just the tallies —
	// matched bit-for-bit between the two paths.
	Identical bool `json:"identical"`
	// Divergences counts decision slots where the paths disagreed.
	Divergences int `json:"divergences"`
}

// CampaignCompare runs the same seeded campaign through both collection
// paths and compares the full decision streams element-wise. Both runs use
// the suite's seed, so the scenes, instruction order and device state are
// identical; any divergence is the collection path's doing.
func (s *Suite) CampaignCompare(ctx context.Context, rounds int) (CampaignComparison, error) {
	polled, err := s.runAttack(ctx, rounds, s.polledEnv)
	if err != nil {
		return CampaignComparison{}, fmt.Errorf("eval: polled campaign: %w", err)
	}
	pushed, err := s.runAttack(ctx, rounds, s.epochEnv)
	if err != nil {
		return CampaignComparison{}, fmt.Errorf("eval: epoch campaign: %w", err)
	}
	cmp := CampaignComparison{Polled: attackResult(rounds, polled), Epoch: attackResult(rounds, pushed)}
	for r, u := range polled.units {
		for i, dec := range u.decisions {
			if dec != pushed.units[r].decisions[i] {
				cmp.Divergences++
			}
		}
	}
	cmp.Identical = cmp.Divergences == 0
	return cmp, nil
}

// Table renders both paths' rates and digests, and the stream verdict.
func (c CampaignComparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collection-path comparison — %d rounds, polled vs. event-driven\n", c.Polled.Rounds)
	fmt.Fprintf(&b, "  polled: interception %.1f%%, false blocks %.1f%%, digest %s\n",
		100*c.Polled.Safety(), 100*c.Polled.FalseBlockRate(), c.Polled.Digest)
	fmt.Fprintf(&b, "  epoch:  interception %.1f%%, false blocks %.1f%%, digest %s\n",
		100*c.Epoch.Safety(), 100*c.Epoch.FalseBlockRate(), c.Epoch.Digest)
	if c.Identical {
		fmt.Fprintf(&b, "  decision streams identical (every decision bit-for-bit equal)\n")
	} else {
		fmt.Fprintf(&b, "  DIVERGED: %d decision slots differ\n", c.Divergences)
	}
	return b.String()
}
