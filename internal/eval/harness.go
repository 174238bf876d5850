package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"iotsid/internal/core"
	"iotsid/internal/instr"
	"iotsid/internal/par"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// The campaign harness: every campaign is a row of self-contained units
// (scenario × round), each seeded from its index before the fan-out and
// merged in unit order, so every tally and digest is identical at any
// worker count. A row supplies the environment a unit builds, the attack
// mix it drives there, and the metrics it reports.

// FNV-64 constants of every campaign digest.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// campaignDetector is the read-only detector every unit shares.
var campaignDetector = sync.OnceValues(core.DefaultDetector)

// campaignRegistry builds every instruction a campaign fires.
var campaignRegistry = instr.BuiltinRegistry()

// framework builds a unit's framework over collector, with set's sequence
// judge (nil for the tree alone).
func (s *Suite) framework(collector core.Collector, set *seq.Set) (*core.Framework, error) {
	detector, err := campaignDetector()
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{Detector: detector, Collector: collector, Memory: s.Memory, Sequence: set})
}

// seqFold folds one decision into an FNV-64a style digest: the allow bit,
// then the reason bytes.
func seqFold(d uint64, allowed bool, reason string) uint64 {
	var bit uint64
	if allowed {
		bit = 1
	}
	d ^= bit
	d *= fnvPrime
	for i := 0; i < len(reason); i++ {
		d ^= uint64(reason[i])
		d *= fnvPrime
	}
	return d
}

// hexDigest renders a digest the way every campaign reports it.
func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// Counts tallies one judged population: staged attacks, the legitimate
// commands beside them, and how each was decided.
type Counts struct {
	Attempts      int `json:"attempts"`
	Blocked       int `json:"blocked"`
	LegitAttempts int `json:"legit_attempts"`
	LegitBlocked  int `json:"legit_blocked"`
	// FailClosed counts rejections by a fail-closed rule, not the tree.
	FailClosed int `json:"fail_closed"`
	// UnsafeAllows counts sensitive instructions allowed in a state the
	// row's contract forbids: a missing required source (fault) or a
	// spoofed feed (spoof). Both contracts demand zero.
	UnsafeAllows int `json:"unsafe_allows"`
	// StaleServes counts decisions made on a bounded-stale optional source.
	StaleServes int `json:"stale_serves"`
	// Undecided counts commands with no context from any source, so no
	// decision. Nothing was forwarded: each also counts as blocked.
	Undecided int `json:"undecided"`
}

// record tallies one decision as a staged attack or a legitimate command.
func (c *Counts) record(attack, allowed bool, reason string) {
	if attack {
		c.Attempts++
		if !allowed {
			c.Blocked++
		}
	} else {
		c.LegitAttempts++
		if !allowed {
			c.LegitBlocked++
		}
	}
	if strings.Contains(reason, "fail closed") {
		c.FailClosed++
	}
}

// add merges another tally into c.
func (c *Counts) add(o Counts) {
	c.Attempts += o.Attempts
	c.Blocked += o.Blocked
	c.LegitAttempts += o.LegitAttempts
	c.LegitBlocked += o.LegitBlocked
	c.FailClosed += o.FailClosed
	c.UnsafeAllows += o.UnsafeAllows
	c.StaleServes += o.StaleServes
	c.Undecided += o.Undecided
}

// Safety is the fraction of staged attacks blocked (1 with none staged).
func (c Counts) Safety() float64 { return ratio(c.Blocked, c.Attempts, 1) }

// Availability is the fraction of legitimate commands served (1 with none).
func (c Counts) Availability() float64 {
	return ratio(c.LegitAttempts-c.LegitBlocked, c.LegitAttempts, 1)
}

// FalseBlockRate is the fraction of legitimate commands wrongly blocked.
func (c Counts) FalseBlockRate() float64 { return ratio(c.LegitBlocked, c.LegitAttempts, 0) }

func ratio(n, d int, empty float64) float64 {
	if d == 0 {
		return empty
	}
	return float64(n) / float64(d)
}

// unit is one unit's report; merged, one scenario's.
type unit struct {
	lanes  []Counts // per attack class, per judge (seq), or one (spoof)
	digest uint64   // seqFold of the decisions (spoof: of the trust scores)
	// decisions keeps the attack mix's decisions for CampaignCompare.
	decisions []core.Decision
	trust     trust.SourceTrust // the spoof row's end-of-round report
}

func newUnit(lanes int) unit { return unit{lanes: make([]Counts, lanes), digest: fnvOffset} }

// decide tallies one decision in lane l and folds it into the digest.
func (u *unit) decide(l int, attack, allowed bool, reason string) {
	u.lanes[l].record(attack, allowed, reason)
	u.digest = seqFold(u.digest, allowed, reason)
}

// undecided tallies a command that got no decision, folded as tag 'e'.
func (u *unit) undecided(l int, attack bool) {
	u.lanes[l].Undecided++
	u.decide(l, attack, false, "e")
}

// total sums the unit's lanes.
func (u unit) total() Counts {
	var c Counts
	for _, l := range u.lanes {
		c.add(l)
	}
	return c
}

// tally is a campaign's merged outcome.
type tally struct {
	units     []unit // in unit order
	scenarios []unit // per scenario: lanes summed, digests folded by round
	digest    uint64 // every unit digest, folded in unit order
}

// runCampaign fans scenarios × rounds units (unit u runs scenario
// u/rounds) over the suite's workers and merges them in unit order. ctx is
// checked before and after every unit, so a cancelled campaign returns the
// context's error, never a tally of calls that did not run.
func (s *Suite) runCampaign(ctx context.Context, rounds, scenarios, lanes int,
	run func(ctx context.Context, scenario int, u int64, out *unit) error) (tally, error) {
	if rounds <= 0 {
		return tally{}, fmt.Errorf("eval: rounds must be positive")
	}
	units, err := par.Map(scenarios*rounds, s.Config.Workers, func(u int) (unit, error) {
		out := newUnit(lanes)
		if err := ctx.Err(); err != nil {
			return out, err
		}
		err := run(ctx, u/rounds, int64(u), &out)
		if ctx.Err() != nil {
			// A stale source can still answer a cancelled call, so a unit
			// that ran into the cancellation is discarded even on success.
			err = ctx.Err()
		}
		return out, err
	})
	if err != nil {
		return tally{}, err
	}
	t := tally{units: units, scenarios: make([]unit, scenarios), digest: fnvOffset}
	for i := range t.scenarios {
		t.scenarios[i] = newUnit(lanes)
	}
	for u, o := range units {
		sc := &t.scenarios[u/rounds]
		for l, c := range o.lanes {
			sc.lanes[l].add(c)
		}
		sc.digest = sc.digest*fnvPrime ^ o.digest
		t.digest = t.digest*fnvPrime ^ o.digest
	}
	return t, nil
}

// CampaignTable is a campaign's result, rendered as EXPERIMENTS.md prints it.
type CampaignTable interface{ Table() string }

// CampaignRow is one campaign with the round count of its published table.
type CampaignRow struct {
	Name   string
	Rounds int
	Run    func(ctx context.Context, rounds int) (CampaignTable, error)
}

// CampaignRows lists the suite's campaigns in EXPERIMENTS.md's order.
func (s *Suite) CampaignRows() []CampaignRow {
	return []CampaignRow{
		campaignRow("attack", 60, s.Campaign),
		campaignRow("compare", 60, s.CampaignCompare),
		campaignRow("fault", 4, s.FaultCampaign),
		campaignRow("spoof", 5, s.SpoofCampaign),
		campaignRow("seq", 5, s.SeqCampaign),
	}
}

func campaignRow[T CampaignTable](name string, rounds int, run func(context.Context, int) (T, error)) CampaignRow {
	return CampaignRow{Name: name, Rounds: rounds, Run: func(ctx context.Context, n int) (CampaignTable, error) {
		return run(ctx, n)
	}}
}
