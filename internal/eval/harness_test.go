package eval

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestCampaignDeterminism: every row's units are self-contained and seeded
// from their index before the fan-out, so each campaign's full result —
// tallies and digests — is identical serially and at 8 workers.
func TestCampaignDeterminism(t *testing.T) {
	s := suiteForTest(t)
	serial := *s
	serial.Config.Workers = 1
	parallel := *s
	parallel.Config.Workers = 8

	parallelRows := parallel.CampaignRows()
	for i, row := range serial.CampaignRows() {
		t.Run(row.Name, func(t *testing.T) {
			a, err := row.Run(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := parallelRows[i].Run(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s campaign diverges:\nserial:   %+v\nparallel: %+v", row.Name, a, b)
			}
		})
	}
}

// TestCampaignValidation: every row rejects a non-positive round count.
func TestCampaignValidation(t *testing.T) {
	s := suiteForTest(t)
	for _, row := range s.CampaignRows() {
		t.Run(row.Name, func(t *testing.T) {
			for _, rounds := range []int{0, -1} {
				if _, err := row.Run(context.Background(), rounds); err == nil {
					t.Errorf("%d rounds accepted", rounds)
				}
			}
		})
	}
}

// TestCampaignCancelled: every row returns the parent context's error when
// the context is already cancelled — none may report a table built from
// calls that never ran.
func TestCampaignCancelled(t *testing.T) {
	s := suiteForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range s.CampaignRows() {
		t.Run(row.Name, func(t *testing.T) {
			if r, err := row.Run(ctx, 2); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled (result %+v)", err, r)
			}
		})
	}
}
