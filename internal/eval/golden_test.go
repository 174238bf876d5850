package eval

import (
	"context"
	"testing"
)

// TestCampaignDigestGolden pins the sequence and spoofing campaigns'
// digests and fail-closed tallies for 5 rounds of the default suite. The
// determinism tests only compare runs against each other, so a refactor
// that moves every digest the same way would pass them; this one fails
// unless the decisions are bit-identical to the recorded ones.
func TestCampaignDigestGolden(t *testing.T) {
	s := suiteForTest(t)
	const rounds = 5

	sr, err := s.SeqCampaign(context.Background(), rounds)
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
	rows, err := s.SpoofCampaign(context.Background(), rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("SpoofCampaign returned %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
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
