package eval

import (
	"context"
	"testing"
)

// TestCampaignDigestGolden pins every campaign's tallies and decision
// digests for 5 rounds of the default suite. The determinism tests only
// compare runs against each other, so a refactor that moves every digest
// the same way would pass them; this one fails unless the decisions are
// bit-identical to the recorded ones.
func TestCampaignDigestGolden(t *testing.T) {
	s := suiteForTest(t)
	ctx := context.Background()
	const rounds = 5

	// Attack campaign: per class attempts, blocked, legit attempts and
	// legit blocked, then the decision digest.
	wantAttack := map[AttackType][4]int{
		AttackWindowBurglary: {5, 5, 5, 0},
		AttackAirconWaste:    {5, 4, 5, 0},
		AttackLightCasing:    {5, 3, 5, 0},
		AttackCurtainPrivacy: {5, 5, 5, 0},
		AttackTVScare:        {5, 0, 5, 0},
		AttackCookerFire:     {5, 4, 5, 0},
	}
	ar, err := s.Campaign(ctx, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.PerType) != len(wantAttack) {
		t.Fatalf("Campaign returned %d classes, want %d", len(ar.PerType), len(wantAttack))
	}
	for typ, w := range wantAttack {
		c := ar.PerType[typ]
		if got := [4]int{c.Attempts, c.Blocked, c.LegitAttempts, c.LegitBlocked}; got != w {
			t.Errorf("Campaign %s: attempts/blocked/legit/legit-blocked = %v, want %v", typ, got, w)
		}
	}
	if ar.Digest != "3f4361c5022ea667" {
		t.Errorf("Campaign digest = %s, want 3f4361c5022ea667", ar.Digest)
	}

	// Polled versus epoch collection: identical streams, the same digest.
	cmp, err := s.CampaignCompare(ctx, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || cmp.Divergences != 0 || cmp.Epoch.Digest != cmp.Polled.Digest || cmp.Polled.Digest != "3f4361c5022ea667" {
		t.Errorf("CampaignCompare: identical %v, %d divergences, digests polled %s epoch %s; want true, 0, 3f4361c5022ea667 twice",
			cmp.Identical, cmp.Divergences, cmp.Polled.Digest, cmp.Epoch.Digest)
	}

	// Fault campaign: attempts, blocked, legit attempts, legit allowed,
	// fail-closed, stale serves, no-context and unsafe allows, then the
	// decision digest, per scenario in campaign order.
	type faultRow struct {
		name     string
		counters [8]int
		digest   string
	}
	wantFault := []faultRow{
		{"baseline", [8]int{25, 21, 25, 25, 0, 0, 0, 0}, "036f42625bb0a053"},
		{"flaky_optional", [8]int{25, 23, 25, 25, 0, 0, 0, 0}, "dd0c7628357cd3e3"},
		{"optional_blackout", [8]int{25, 22, 25, 23, 0, 35, 0, 0}, "8179827f02075834"},
		{"required_down", [8]int{25, 25, 25, 0, 50, 0, 0, 0}, "9c7aa82e03c0f8da"},
		{"byzantine_optional", [8]int{25, 12, 25, 9, 0, 0, 0, 0}, "5d91d8a6d8128382"},
	}
	fr, err := s.FaultCampaign(ctx, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Scenarios) != len(wantFault) {
		t.Fatalf("FaultCampaign returned %d rows, want %d", len(fr.Scenarios), len(wantFault))
	}
	for i, w := range wantFault {
		r := fr.Scenarios[i]
		got := faultRow{r.Name, [8]int{r.Attempts, r.Blocked, r.LegitAttempts, r.LegitAttempts - r.LegitBlocked,
			r.FailClosed, r.StaleServes, r.Undecided, r.UnsafeAllows}, r.Digest}
		if got != w {
			t.Errorf("FaultCampaign row %d = %+v, want %+v", i, got, w)
		}
	}

	sr, err := s.SeqCampaign(ctx, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Digest != "c149572732304366" {
		t.Errorf("SeqCampaign digest = %s, want c149572732304366", sr.Digest)
	}

	want := map[string]struct {
		digest             string
		failClosed, unsafe int
	}{
		"clean":      {"0fb3b8e784aff196", 0, 0},
		"replay":     {"2f1d26208f501b43", 30, 0},
		"slow_drift": {"8a53bfd7eb0e2863", 30, 0},
		"stuck_at":   {"b36c28f3f2b47df1", 30, 0},
		"spike":      {"cd57b15c111fee0d", 30, 0},
	}
	rows, err := s.SpoofCampaign(ctx, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Scenarios) != len(want) {
		t.Fatalf("SpoofCampaign returned %d rows, want %d", len(rows.Scenarios), len(want))
	}
	for _, r := range rows.Scenarios {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected spoof scenario %q", r.Name)
			continue
		}
		if r.TrustDigest != w.digest || r.FailClosed != w.failClosed || r.UnsafeAllows != w.unsafe {
			t.Errorf("%s: digest %s fail-closed %d unsafe %d, want %s %d %d",
				r.Name, r.TrustDigest, r.FailClosed, r.UnsafeAllows, w.digest, w.failClosed, w.unsafe)
		}
	}
}
