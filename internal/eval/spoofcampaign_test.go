package eval

import (
	"context"
	"strings"
	"testing"
)

// TestSpoofCampaign is the spoofing-campaign contract: every attack
// family is fully blocked in the firing phase (zero unsafe allows, all
// of it explicit fail-closed), the trust engine records the violations
// that did it, and honest traffic — the clean control and every
// scenario's pre-attack phase — stays fully available.
func TestSpoofCampaign(t *testing.T) {
	s := suiteForTest(t)
	results, err := s.SpoofCampaign(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Scenarios) != len(spoofScenarios) {
		t.Fatalf("got %d scenario rows, want %d", len(results.Scenarios), len(spoofScenarios))
	}
	for _, r := range results.Scenarios {
		if r.UnsafeAllows != 0 {
			t.Errorf("%s: %d unsafe allows, want 0", r.Name, r.UnsafeAllows)
		}
		if r.Availability() != 1 {
			t.Errorf("%s: availability %.3f, want 1.0 on honest traffic", r.Name, r.Availability())
		}
		if r.Name == "clean" {
			if r.TrustViolations != 0 {
				t.Errorf("clean: %d trust violations, want 0", r.TrustViolations)
			}
			if r.MinFinalScore != 1 {
				t.Errorf("clean: min final score %.3f, want 1", r.MinFinalScore)
			}
			if r.Attempts != 0 {
				t.Errorf("clean: %d spoof attempts, want 0", r.Attempts)
			}
			continue
		}
		if r.Attempts == 0 || r.Blocked != r.Attempts {
			t.Errorf("%s: blocked %d of %d spoofed attempts, want all", r.Name, r.Blocked, r.Attempts)
		}
		if r.FailClosed != r.Attempts {
			t.Errorf("%s: %d fail-closed of %d spoofed attempts — attacks must be stopped by the trust gate, not tree judgment", r.Name, r.FailClosed, r.Attempts)
		}
		if r.TrustViolations == 0 {
			t.Errorf("%s: no trust violations recorded", r.Name)
		}
		if r.MinFinalScore >= 0.5 {
			t.Errorf("%s: min final score %.3f, want collapsed below threshold", r.Name, r.MinFinalScore)
		}
	}
}

// TestRenderSpoofCampaign: the table carries every scenario row and the
// header vocabulary the docs reference.
func TestRenderSpoofCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.SpoofCampaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"scenario", "avail", "safety", "unsafe", "digest",
		"clean", "replay", "slow_drift", "stuck_at", "spike"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
