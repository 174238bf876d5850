package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/resilience"
)

// faultScenario describes one fault-injection regime for the resilience
// campaign: per-source fault probabilities for the chaos wrappers, the
// optional source's staleness budget, and the merge order.
type faultScenario struct {
	Name string
	// ReqError / ReqHang are the fault probabilities of the required source.
	ReqError float64
	ReqHang  float64
	// OptError / OptHang / OptByzantine are the optional source's.
	OptError     float64
	OptHang      float64
	OptByzantine float64
	// OptBlackoutAfter, when positive, overrides the stochastic optional
	// plan: the first N calls succeed, every later call errors — the
	// clean outage that walks the fresh → stale → missing ladder.
	OptBlackoutAfter int
	// Staleness is the optional source's last-good serving budget.
	Staleness time.Duration
	// OptionalOverrides declares the optional source after the required one,
	// so its (possibly corrupted) features win shared-feature merges. The
	// default order lets the fresh required feed win.
	OptionalOverrides bool
}

// faultScenarios is the published fault campaign: a healthy baseline, a
// flapping optional source absorbed by bounded staleness, a clean optional
// blackout walking the staleness ladder, a dead required source forcing
// fail-closed, and a byzantine optional source allowed to win merges.
var faultScenarios = []faultScenario{
	{Name: "baseline", Staleness: 30 * time.Second},
	{Name: "flaky_optional", OptError: 0.35, OptHang: 0.1, Staleness: 5 * time.Minute},
	{Name: "optional_blackout", OptBlackoutAfter: 3, Staleness: 45 * time.Second},
	{Name: "required_down", ReqError: 1, Staleness: 30 * time.Second},
	{Name: "byzantine_optional", OptByzantine: 1, Staleness: 30 * time.Second, OptionalOverrides: true},
}

// FaultScenarioResult tallies one scenario across its rounds. The counts
// cover sensitive instructions only — the non-sensitive ones (the TV
// class) are outside the fail-closed contract. A command that got no
// decision (Undecided, the table's no-ctx column) counts as blocked.
type FaultScenarioResult struct {
	Name string `json:"name"`
	Counts
	// Digest folds every command's allow bit and reason (seqFold; tag 'e'
	// for a command that got no decision) per round, then the round
	// digests in round order.
	Digest string `json:"digest"`
}

// FaultCampaignResult is the fault campaign's outcome, one row per
// scenario in campaign order.
type FaultCampaignResult struct {
	Rounds    int                   `json:"rounds"`
	Scenarios []FaultScenarioResult `json:"scenarios"`
}

// optPlan builds the optional source's fault plan for a scenario.
func (sc faultScenario) optPlan(seed int64) func(int) core.FaultKind {
	if sc.OptBlackoutAfter > 0 {
		n := sc.OptBlackoutAfter
		return func(call int) core.FaultKind {
			if call < n {
				return core.FaultNone
			}
			return core.FaultError
		}
	}
	return core.ChaosPlan(seed, sc.OptError, sc.OptHang, sc.OptByzantine)
}

// FaultCampaign runs every scenario for the given number of rounds
// against a live two-source deployment: a required chaos-wrapped sim feed
// and an optional chaos-wrapped sim feed behind retry policies, a breaker
// on the required source, bounded staleness on the optional one, and a
// health registry observed after every command. The attack mix is the
// attack campaign's, sensitive instructions only. ctx is the parent of
// every per-call timeout the rounds impose.
func (s *Suite) FaultCampaign(ctx context.Context, rounds int) (FaultCampaignResult, error) {
	t, err := s.runCampaign(ctx, rounds, len(faultScenarios), len(campaignAttacks), func(ctx context.Context, sc int, u int64, out *unit) error {
		env, err := s.faultEnv(faultScenarios[sc], u)
		if err != nil {
			return err
		}
		return attackMix(ctx, env, rand.New(rand.NewSource(s.Config.Seed+505+u)), true, out)
	})
	if err != nil {
		return FaultCampaignResult{}, err
	}
	res := FaultCampaignResult{Rounds: rounds, Scenarios: make([]FaultScenarioResult, len(faultScenarios))}
	for i, sc := range faultScenarios {
		res.Scenarios[i] = FaultScenarioResult{Name: sc.Name, Counts: t.scenarios[i].total(), Digest: hexDigest(t.scenarios[i].digest)}
	}
	return res, nil
}

// faultEnv builds one unit's chaos deployment: a home seeded Seed+303,
// chaos plans seeded Seed+7u (required) and Seed+7u+1 (optional), retry
// jitter seeded Seed+u, and a fake clock advanced 5 s before every command
// so staleness budgets and breaker timeouts play out without wall-clock
// time. A planned hang ends at once as timed out (core.ChaosCollector), so
// no attempt needs a deadline and a slow host cannot time out one that
// was not planned to hang. A command whose call fails while ctx is live
// got no context: it is undecided, not a campaign error.
func (s *Suite) faultEnv(sc faultScenario, u int64) (attackEnv, error) {
	h, err := home.NewStandard(home.EnvConfig{Seed: s.Config.Seed + 303})
	if err != nil {
		return attackEnv{}, err
	}
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { return now }

	reqChaos := &core.ChaosCollector{
		Inner: &core.SimCollector{Env: h.Env()},
		Plan:  core.ChaosPlan(s.Config.Seed+7*u, sc.ReqError, sc.ReqHang, 0),
	}
	optChaos := &core.ChaosCollector{
		Inner: &core.SimCollector{Env: h.Env()},
		Plan:  sc.optPlan(s.Config.Seed + 7*u + 1),
	}
	retry := resilience.Policy{
		MaxAttempts: 2,
		Seed:        s.Config.Seed + u,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		Name: "required", FailureThreshold: 3, OpenTimeout: 2 * time.Minute, Now: clock,
	})
	required := core.Source{
		Name: "required", Required: true, Collector: reqChaos, Retry: &retry, Breaker: breaker,
	}
	optional := core.Source{
		Name: "optional", Staleness: sc.Staleness, Collector: optChaos, Retry: &retry,
	}
	order := []core.Source{optional, required}
	if sc.OptionalOverrides {
		order = []core.Source{required, optional}
	}
	health := resilience.NewRegistry()
	mc, err := core.NewMultiCollector(core.MultiConfig{Now: clock, Health: health}, order...)
	if err != nil {
		return attackEnv{}, err
	}
	framework, err := s.framework(mc, nil)
	if err != nil {
		return attackEnv{}, err
	}

	// sourceState reads one source's health row after a command.
	sourceState := func(name string) string {
		for _, sh := range health.Snapshot() {
			if sh.Name == name {
				return sh.State
			}
		}
		return ""
	}
	decide := func(ctx context.Context, in instr.Instruction, c *Counts) (core.Decision, bool, error) {
		now = now.Add(5 * time.Second)
		dec, err := framework.Authorize(ctx, in)
		if err != nil {
			return dec, false, ctx.Err()
		}
		if sourceState("optional") == string(core.SourceStale) {
			c.StaleServes++
		}
		if dec.Allowed && sourceState("required") == string(core.SourceMissing) {
			c.UnsafeAllows++
		}
		return dec, true, nil
	}
	return attackEnv{home: h, decide: decide}, nil
}

// Table renders the availability-versus-safety table.
func (r FaultCampaignResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault campaign — %d rounds per scenario, sensitive instructions only\n", r.Rounds)
	fmt.Fprintf(&b, "  %-20s %6s %7s %12s %7s %8s %7s\n",
		"scenario", "avail", "safety", "fail-closed", "stale", "no-ctx", "unsafe")
	for _, r := range r.Scenarios {
		fmt.Fprintf(&b, "  %-20s %5.1f%% %6.1f%% %12d %7d %8d %7d\n",
			r.Name, 100*r.Availability(), 100*r.Safety(),
			r.FailClosed, r.StaleServes, r.Undecided, r.UnsafeAllows)
	}
	return b.String()
}
