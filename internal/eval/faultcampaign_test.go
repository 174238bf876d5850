package eval

import (
	"context"
	"errors"
	"strings"
	"testing"

	"iotsid/internal/instr"
)

func faultResults(t *testing.T, rounds int) map[string]FaultScenarioResult {
	t.Helper()
	s := suiteForTest(t)
	results, err := s.FaultCampaign(context.Background(), rounds)
	if err != nil {
		t.Fatalf("FaultCampaign: %v", err)
	}
	out := make(map[string]FaultScenarioResult, len(results.Scenarios))
	for _, r := range results.Scenarios {
		out[r.Name] = r
	}
	return out
}

// TestFaultCampaignContract asserts the two headline properties of the
// resilience work: a flapping optional source does not take availability to
// zero (bounded staleness absorbs it), and a dead required source rejects
// every sensitive instruction (fail-closed), with zero unsafe allows
// anywhere in the campaign.
func TestFaultCampaignContract(t *testing.T) {
	results := faultResults(t, 4)

	// Baseline: the harness itself is sound — everything is served and no
	// command errors out.
	base, ok := results["baseline"]
	if !ok {
		t.Fatal("baseline scenario missing")
	}
	if base.Undecided != 0 || base.FailClosed != 0 || base.StaleServes != 0 {
		t.Errorf("baseline not clean: %+v", base)
	}
	if base.Availability() == 0 {
		t.Error("baseline availability zero")
	}
	if base.Safety() == 0 {
		t.Error("baseline safety zero")
	}

	// Flapping optional source: availability survives, no fail-closed (the
	// required feed keeps answering), and the staleness fallback was
	// actually exercised.
	flaky := results["flaky_optional"]
	if flaky.Availability() == 0 {
		t.Errorf("flaky optional source took availability to zero: %+v", flaky)
	}
	if flaky.StaleServes == 0 {
		t.Errorf("staleness fallback never exercised: %+v", flaky)
	}
	if flaky.FailClosed != 0 {
		t.Errorf("healthy required source but fail-closed decisions: %+v", flaky)
	}
	// A flapping *optional* source must not change safety relative to the
	// baseline regime: the fresh required feed wins every merge.
	if flaky.Safety() < base.Safety() {
		t.Errorf("flaky optional source degraded safety: %.2f < %.2f", flaky.Safety(), base.Safety())
	}

	// Optional blackout: the fresh → stale → missing ladder is walked.
	blackout := results["optional_blackout"]
	if blackout.StaleServes == 0 {
		t.Errorf("blackout never served stale: %+v", blackout)
	}
	if blackout.Availability() == 0 {
		t.Errorf("optional blackout took availability to zero: %+v", blackout)
	}

	// Required source down: every sensitive instruction rejected — attacks
	// and legitimate alike — via explicit fail-closed decisions.
	down := results["required_down"]
	if down.Blocked != down.Attempts {
		t.Errorf("required down: %d/%d attacks blocked, want all", down.Blocked, down.Attempts)
	}
	if down.LegitBlocked != down.LegitAttempts {
		t.Errorf("required down: %d sensitive commands served blind", down.LegitAttempts-down.LegitBlocked)
	}
	if down.FailClosed == 0 {
		t.Errorf("required down produced no fail-closed decisions: %+v", down)
	}

	// The fail-closed contract holds campaign-wide: no sensitive
	// instruction was ever allowed while the required source was missing.
	for name, r := range results {
		if r.UnsafeAllows != 0 {
			t.Errorf("scenario %s: %d unsafe allows, want 0", name, r.UnsafeAllows)
		}
		if r.Attempts == 0 || r.LegitAttempts == 0 {
			t.Errorf("scenario %s fired no sensitive instructions: %+v", name, r)
		}
	}
}

// TestRenderFaultCampaign: the table renders one row per scenario.
func TestRenderFaultCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.FaultCampaign(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, sc := range faultScenarios {
		if !strings.Contains(out, sc.Name) {
			t.Errorf("render missing scenario %s:\n%s", sc.Name, out)
		}
	}
	if !strings.Contains(out, "avail") || !strings.Contains(out, "safety") {
		t.Errorf("render missing headers:\n%s", out)
	}
}

// TestFaultCallCancelled: a command whose call fails because the
// campaign's own context is done aborts the unit with that context's
// error; only a failure under a live context is an undecided command.
func TestFaultCallCancelled(t *testing.T) {
	s := suiteForTest(t)
	env, err := s.faultEnv(faultScenarios[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := campaignRegistry.Build("window.open", "window-1", instr.OriginUnknown, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := env.decide(ctx, in, &Counts{}); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: ok %v err %v, want context.Canceled", ok, err)
	}
	if _, ok, err := env.decide(context.Background(), in, &Counts{}); !ok || err != nil {
		t.Fatalf("live context: ok %v err %v, want a decision", ok, err)
	}
}
