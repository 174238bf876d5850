package eval

import (
	"context"
	"strings"
	"testing"
)

// TestSeqCampaign is the sequence-campaign contract: the static tree alone
// allows every temporal attack (each staged scene is tree-legal — that is
// the blind spot the axis exists for), the combined judge blocks them all
// with zero unsafe allows, and benign traffic — the clean control and
// every scenario's warm-up day — stays fully available under both judges.
func TestSeqCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.SeqCampaign(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != len(seqScenarios) {
		t.Fatalf("got %d scenario rows, want %d", len(r.Scenarios), len(seqScenarios))
	}
	if r.UnsafeAllows != 0 {
		t.Errorf("combined judge let %d attacks through, want 0", r.UnsafeAllows)
	}
	for _, row := range r.Scenarios {
		if row.Tree.Availability() != 1 || row.Combined.Availability() != 1 {
			t.Errorf("%s: availability tree %.3f / combined %.3f, want 1.0 on benign traffic",
				row.Scenario, row.Tree.Availability(), row.Combined.Availability())
		}
		if row.Scenario == SeqScenarioClean {
			if row.Tree.Attempts != 0 || row.Combined.Attempts != 0 {
				t.Errorf("clean control staged %d/%d attacks, want none",
					row.Tree.Attempts, row.Combined.Attempts)
			}
			continue
		}
		if row.Tree.Attempts == 0 {
			t.Errorf("%s: no attacks staged", row.Scenario)
		}
		if row.Tree.Blocked != 0 {
			t.Errorf("%s: tree alone blocked %d/%d — the scenario must be tree-legal",
				row.Scenario, row.Tree.Blocked, row.Tree.Attempts)
		}
		if row.Combined.Blocked != row.Combined.Attempts {
			t.Errorf("%s: combined judge blocked %d/%d, want all",
				row.Scenario, row.Combined.Blocked, row.Combined.Attempts)
		}
	}
}

// TestRenderSeqCampaign: the table carries both judge rows per scenario
// and the vocabulary the docs reference.
func TestRenderSeqCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.SeqCampaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table()
	for _, want := range []string{"scenario", "judge", "attacks blocked", "avail", "digest",
		"clean", "automation_chain", "stale_replay", "tree+seq", "unsafe allows: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
