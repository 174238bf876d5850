package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"iotsid/internal/dataset"
)

// TestFleetConcurrentPushAuthorize exercises the fleet's synchronisation
// story under the race detector: per-home context pushes racing
// fleet-wide batch authorizes racing single-home authorizes and model
// hot-swaps. Decisions under a racing push may legitimately land on either
// side of the swap; the test asserts absence of data races and of spurious
// errors, not specific outcomes.
func TestFleetConcurrentPushAuthorize(t *testing.T) {
	const homes = 32
	f := fleetForTest(t, Config{Shards: 4, FreshFor: 0})
	ids := make([]string, homes)
	legal := legalCtx(t, dataset.ModelWindow)
	attack := attackCtx(t, dataset.ModelWindow)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%02d", i)
		mustAddHome(t, f, HomeConfig{ID: ids[i]})
		if err := f.PushContext(ids[i], legal); err != nil {
			t.Fatal(err)
		}
	}
	open := buildInstr(t, "window.open", "w")
	status := buildInstr(t, "light.get_state", "l")

	var wg sync.WaitGroup
	// Pushers: every home flips between legal and attack context.
	for i := 0; i < homes; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				snap := legal
				if r%2 == 1 {
					snap = attack
				}
				if err := f.PushContext(id, snap); err != nil {
					t.Errorf("PushContext(%s): %v", id, err)
					return
				}
			}
		}(ids[i])
	}
	// Batch authorizers: fleet-wide sweeps.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]BatchItem, homes)
			for i := range items {
				items[i] = BatchItem{Home: ids[i], In: open}
			}
			for r := 0; r < 20; r++ {
				out, err := f.AuthorizeBatch(context.Background(), items, 4)
				if err != nil {
					t.Errorf("AuthorizeBatch: %v", err)
					return
				}
				for i, res := range out {
					if res.Err != "" {
						t.Errorf("batch item %d: %s", i, res.Err)
						return
					}
				}
			}
		}()
	}
	// Single-home authorizers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				id := ids[(g*31+r)%homes]
				if _, err := authorizeOne(context.Background(), f, id, status); err != nil {
					t.Errorf("Authorize(%s): %v", id, err)
					return
				}
			}
		}(g)
	}
	// Model hot-swapper: republish the window entry while readers judge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, _ := f.Registry().Entry(dataset.ModelWindow)
		for r := 0; r < 25; r++ {
			if err := f.Registry().Swap(dataset.ModelWindow, e); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
