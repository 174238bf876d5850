package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/automation"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// SeqScenario names one temporal-attack scenario of the sequence campaign.
// Unlike the static campaign's attack classes, every scene staged here is
// individually tree-legal — the attack lives entirely in the ordering and
// timing of the instruction stream, which only the sequence judge can see.
type SeqScenario string

const (
	// SeqScenarioClean is the control: a coherent benign day, no attack.
	// Both judges must keep it fully available.
	SeqScenarioClean SeqScenario = "clean"
	// SeqScenarioAutomationChain triggers a rule cascade — three status
	// reads and a sensitive action fired from one snapshot, all sharing a
	// single timestamp. Each scene passes the tree's voice-legal branch;
	// the same-tick burst is the signature.
	SeqScenarioAutomationChain SeqScenario = "automation_chain"
	// SeqScenarioStaleReplay re-fires a captured voice-legal scene whose
	// hour bucket no benign day ever jumps to. The tree sees a legal hour;
	// the sequence judge sees an impossible transition.
	SeqScenarioStaleReplay SeqScenario = "stale_replay"
)

// seqScenarios fixes the campaign order (and therefore the digest).
var seqScenarios = []SeqScenario{SeqScenarioClean, SeqScenarioAutomationChain, SeqScenarioStaleReplay}

// SeqScenarioResult is one scenario's side-by-side outcome: the static tree
// alone versus the tree combined fail-closed with the sequence judge.
type SeqScenarioResult struct {
	Scenario SeqScenario `json:"scenario"`
	Tree     Counts      `json:"tree"`
	Combined Counts      `json:"combined"`
}

// SeqCampaignResult is the full campaign outcome.
type SeqCampaignResult struct {
	Rounds    int                 `json:"rounds"`
	Scenarios []SeqScenarioResult `json:"scenarios"`
	// UnsafeAllows counts staged attacks the combined judge let through —
	// the campaign's safety criterion is zero.
	UnsafeAllows int `json:"unsafe_allows"`
	// Digest folds every decision (both judges, every scenario, every
	// round) through FNV-64 in unit order — bit-identical at any worker
	// count, so two runs can be compared without shipping the streams.
	Digest string `json:"digest"`
}

// SeqCampaign runs the temporal-attack campaign: per (scenario, round)
// unit, two frameworks — the static tree alone and the tree combined with
// the sequence judge — are driven with bit-identical instruction streams:
// a benign warm-up day, then the scenario's attack. Unit u's trace
// generator is seeded Seed+515+9973u. The shared sequence table is trained
// once, up front (seed Seed+7), from the same deterministic generator the
// judge ships with.
func (s *Suite) SeqCampaign(ctx context.Context, rounds int) (SeqCampaignResult, error) {
	set, err := seq.Train(seq.TrainConfig{Seed: s.Config.Seed + 7, Models: []dataset.Model{dataset.ModelWindow}})
	if err != nil {
		return SeqCampaignResult{}, err
	}
	t, err := s.runCampaign(ctx, rounds, len(seqScenarios), 2, func(_ context.Context, sc int, u int64, out *unit) error {
		return s.seqRound(seqScenarios[sc], set, rand.New(rand.NewSource(s.Config.Seed+515+9973*u)), out)
	})
	if err != nil {
		return SeqCampaignResult{}, err
	}
	res := SeqCampaignResult{Rounds: rounds, Scenarios: make([]SeqScenarioResult, len(seqScenarios)), Digest: hexDigest(t.digest)}
	for i, sc := range seqScenarios {
		tree, combined := t.scenarios[i].lanes[0], t.scenarios[i].lanes[1]
		res.Scenarios[i] = SeqScenarioResult{Scenario: sc, Tree: tree, Combined: combined}
		res.UnsafeAllows += combined.Attempts - combined.Blocked
	}
	return res, nil
}

// seqRound runs one self-contained (scenario, round) unit: lane 0 tallies
// the tree alone, lane 1 the tree with the armed sequence judge. Both see
// the exact same scenes in the exact same order.
func (s *Suite) seqRound(scenario SeqScenario, set *seq.Set, rng *rand.Rand, out *unit) error {
	nullCollector := core.CollectorFunc(func(context.Context) (sensor.Snapshot, error) {
		return sensor.Snapshot{}, nil
	})
	var judges [2]*core.Framework
	for lane, set := range [2]*seq.Set{nil, set} {
		fw, err := s.framework(nullCollector, set)
		if err != nil {
			return err
		}
		judges[lane] = fw
	}

	// judgeBoth fires the same instruction+scene through both frameworks
	// and tallies it as benign traffic or as a staged attack.
	judgeBoth := func(op string, e seq.TraceEvent, attack bool) error {
		in, err := campaignRegistry.Build(op, "window-1", instr.OriginUnknown, nil)
		if err != nil {
			return err
		}
		scene := e.WindowScene()
		for lane, fw := range judges {
			dec, err := fw.Judge(in, scene)
			if err != nil {
				return err
			}
			out.decide(lane, attack, dec.Allowed, dec.Reason)
		}
		return nil
	}

	// Warm-up: a coherent benign day (daytime hours, so the tree's
	// voice-legal branch holds throughout). The clean control simply runs
	// a longer one.
	warmN := 14
	if scenario == SeqScenarioClean {
		warmN = 20
	}
	trace := seq.LegalTrace(rng, warmN, 8, 13)
	for _, e := range trace {
		op := "window.get_state"
		if e.Sensitive {
			op = "window.open"
		}
		if err := judgeBoth(op, e, false); err != nil {
			return err
		}
	}
	last := trace[len(trace)-1]

	switch scenario {
	case SeqScenarioClean:
		// Control: no attack.
	case SeqScenarioAutomationChain:
		return runChain(judges, last, out)
	case SeqScenarioStaleReplay:
		// The captured scene re-fires with its stale hour; three attempts,
		// 90 s apart. A rejected event never enters the history, so the
		// replay stays anomalous on every retry.
		replay := seq.TraceEvent{
			At:        last.At.Add(90 * time.Second),
			Hour:      seq.ReplayHour(last.Hour),
			Voice:     true,
			Occupied:  last.Occupied,
			Sensitive: true,
		}
		for attempt := 0; attempt < 3; attempt++ {
			if err := judgeBoth("window.open", replay, true); err != nil {
				return err
			}
			replay.At = replay.At.Add(90 * time.Second)
		}
	}
	return nil
}

// runChain stages the automation-chain attack through the real rule
// engine: one trigger snapshot fires three status reads and then the
// sensitive action, every dispatch gated by the framework's interceptor —
// so all four instructions reach the judge with one shared timestamp, the
// way a compromised rule pack would deliver them.
func runChain(judges [2]*core.Framework, last seq.TraceEvent, out *unit) error {
	burst := seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	snap := burst.WindowScene()
	for lane, fw := range judges {
		engine := automation.NewEngine(campaignRegistry, nil)
		engine.SetInterceptor(automation.Interceptor(fw.Interceptor()))
		for r := 1; r <= 3; r++ {
			if err := engine.AddRuleText(fmt.Sprintf("chain status %d", r),
				`WHEN voice_command == TRUE THEN window.get_state @ window-1`); err != nil {
				return err
			}
		}
		if err := engine.AddRuleText("chain open",
			`WHEN voice_command == TRUE THEN window.open @ window-1`); err != nil {
			return err
		}
		events := engine.Evaluate(snap)
		for _, ev := range events {
			if ev.Err != "" {
				return fmt.Errorf("eval: chain rule %q: %s", ev.Rule, ev.Err)
			}
			// The status fillers are part of the attack delivery, but a
			// judge that rejects them is paying availability for it.
			out.decide(lane, ev.Op == "window.open", ev.Allowed, ev.Reason)
		}
	}
	return nil
}

// Table renders the side-by-side table.
func (r SeqCampaignResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sequence campaign — %d rounds per scenario, static tree vs. tree+sequence\n", r.Rounds)
	fmt.Fprintf(&b, "  %-18s %-9s %15s %14s %8s\n", "scenario", "judge", "attacks blocked", "false blocks", "avail")
	for _, row := range r.Scenarios {
		fmt.Fprintf(&b, "  %-18s %-9s %9d/%3d %10d/%3d %7.1f%%\n", row.Scenario, "tree",
			row.Tree.Blocked, row.Tree.Attempts,
			row.Tree.LegitBlocked, row.Tree.LegitAttempts, 100*row.Tree.Availability())
		fmt.Fprintf(&b, "  %-18s %-9s %9d/%3d %10d/%3d %7.1f%%\n", "", "tree+seq",
			row.Combined.Blocked, row.Combined.Attempts,
			row.Combined.LegitBlocked, row.Combined.LegitAttempts, 100*row.Combined.Availability())
	}
	fmt.Fprintf(&b, "  combined-judge unsafe allows: %d\n", r.UnsafeAllows)
	fmt.Fprintf(&b, "  decision digest %s (identical at any worker count)\n", r.Digest)
	return b.String()
}
