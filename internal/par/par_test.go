package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestDoRunsEveryUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var hits [257]atomic.Int32
		err := Do(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestDoEmptyAndSmall(t *testing.T) {
	if err := Do(0, 8, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	var ran atomic.Int32
	if err := Do(1, 8, func(int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 1 {
		t.Errorf("n=1: err=%v ran=%d", err, ran.Load())
	}
}

// TestDoLowestIndexError proves error determinism: whatever the worker
// count and scheduling, the returned error is the one a serial loop would
// have produced — the lowest failing index's.
func TestDoLowestIndexError(t *testing.T) {
	fails := map[int]bool{5: true, 17: true, 63: true}
	for _, workers := range []int{1, 2, 8, 32} {
		for trial := 0; trial < 20; trial++ {
			err := Do(64, workers, func(i int) error {
				if fails[i] {
					return fmt.Errorf("unit %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "unit 5" {
				t.Fatalf("workers=%d trial=%d: err = %v, want unit 5", workers, trial, err)
			}
		}
	}
}

// TestDoSkipsAfterFailure checks that units above a failure can be skipped
// but every unit below the minimal failing index still runs (they would
// have run serially).
func TestDoSkipsAfterFailure(t *testing.T) {
	var hits [128]atomic.Int32
	err := Do(len(hits), 8, func(i int) error {
		hits[i].Add(1)
		if i == 40 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	for i := 0; i < 40; i++ {
		if hits[i].Load() != 1 {
			t.Fatalf("unit %d below the failure ran %d times, want 1", i, hits[i].Load())
		}
	}
	for i := range hits {
		if n := hits[i].Load(); n > 1 {
			t.Fatalf("unit %d ran %d times", i, n)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := Map(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(10, 4, func(i int) (string, error) {
		if i >= 3 {
			return "", fmt.Errorf("unit %d", i)
		}
		return "ok", nil
	})
	if out != nil || err == nil || err.Error() != "unit 3" {
		t.Errorf("out=%v err=%v", out, err)
	}
}

// TestMapDeterministicSeeds is the package contract in miniature: units
// drawing from pre-derived per-index seeds produce identical output at any
// worker count.
func TestMapDeterministicSeeds(t *testing.T) {
	const base = int64(991)
	run := func(workers int) []float64 {
		out, err := Map(64, workers, func(i int) (float64, error) {
			rng := rand.New(rand.NewSource(base + int64(i)))
			sum := 0.0
			for k := 0; k < 100; k++ {
				sum += rng.Float64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d diverges at unit %d: %v != %v", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestPoolRace hammers the pool from many concurrent Do calls with shared
// atomic state — the test verify.sh runs under -race to prove the pool
// itself is clean.
func TestPoolRace(t *testing.T) {
	var total atomic.Int64
	err := Do(8, 8, func(outer int) error {
		return Do(50, 4, func(i int) error {
			total.Add(int64(i))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8 * (50 * 49 / 2))
	if total.Load() != want {
		t.Errorf("total = %d, want %d", total.Load(), want)
	}
}

// TestDoWarmAllocs: a parallel fan-out hands its units to standing
// workers and allocates nothing once they stand parked. It runs at the
// process's own GOMAXPROCS, not under testing.AllocsPerRun, which sets it
// to 1, so the hand-off itself is measured. A worker that has not parked
// again when the next call comes is replaced by a new goroutine, which
// allocates, so the bound is an average.
func TestDoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const calls = 2000
	var sum atomic.Int64
	fn := func(i int) error {
		sum.Add(int64(i))
		return nil
	}
	for range 100 {
		if err := Do(64, 2, fn); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if err := Do(64, 2, fn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.3f allocations per two-worker fan-out at GOMAXPROCS %d", perCall, runtime.GOMAXPROCS(0))
	if perCall > 0.25 {
		t.Fatalf("a warm two-worker fan-out allocates %.3f times, want at most 0.25", perCall)
	}
}
