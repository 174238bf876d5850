package eval

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestEpochCampaignMatchesPolled is the tentpole's equivalence gate: the
// same seeded campaign produces bit-identical decisions whether the
// framework polls the environment or reads the epoch store.
func TestEpochCampaignMatchesPolled(t *testing.T) {
	s := suiteForTest(t)
	cmp, err := s.CampaignCompare(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || cmp.Divergences != 0 {
		t.Fatalf("decision streams diverge: identical=%v divergences=%d\npolled: %+v\nepoch:  %+v",
			cmp.Identical, cmp.Divergences, cmp.Polled, cmp.Epoch)
	}
	if !reflect.DeepEqual(cmp.Polled, cmp.Epoch) {
		t.Fatalf("tallies diverge:\npolled: %+v\nepoch:  %+v", cmp.Polled, cmp.Epoch)
	}
	// The campaign must actually have decided things.
	if cmp.Epoch.LegitAttempts == 0 || len(cmp.Epoch.PerType) != 6 {
		t.Fatalf("empty campaign: %+v", cmp.Epoch)
	}
}

func TestRenderCampaignCompare(t *testing.T) {
	s := suiteForTest(t)
	cmp, err := s.CampaignCompare(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	out := cmp.Table()
	if !strings.Contains(out, "identical") {
		t.Errorf("rendered comparison does not report identity:\n%s", out)
	}
	if !strings.Contains(out, "polled") || !strings.Contains(out, "epoch") {
		t.Errorf("rendered comparison missing path rows:\n%s", out)
	}
}
