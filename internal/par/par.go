// Package par is the shared concurrency substrate of the train/eval stack:
// a bounded worker pool over an index space, with errgroup-style error
// propagation and ordered, index-addressed results.
//
// The package exists to make parallel training *deterministic*. Its contract
// with callers is the seed-derivation rule (DESIGN.md §Training
// parallelism): a unit function must depend only on its index and on state
// derived before the fan-out — any randomness comes from a per-unit
// generator seeded as rand.New(rand.NewSource(base + unitIndex)) computed up
// front, never from a generator shared across units. Under that rule the
// output of Do/Map is bit-identical for every worker count, so Workers is
// purely a throughput knob.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"iotsid/internal/obs"
)

// Pool utilization metrics, registered lazily on the process-default
// registry the first time a fan-out runs. They observe throughput only —
// nothing in Do/Map reads them, so the deterministic-output contract is
// untouched. Counts are accumulated per worker and flushed on exit to keep
// the unit loop free of shared-cacheline traffic.
var (
	metricsOnce sync.Once
	poolRuns    *obs.Counter
	poolTasks   *obs.Counter
	poolBusy    *obs.Gauge
)

func poolMetrics() (runs, tasks *obs.Counter, busy *obs.Gauge) {
	metricsOnce.Do(func() {
		reg := obs.Default()
		poolRuns = reg.NewCounter("iotsid_par_runs_total",
			"Worker-pool fan-outs started (Do/Map calls).")
		poolTasks = reg.NewCounter("iotsid_par_tasks_total",
			"Units executed across all worker-pool fan-outs.")
		poolBusy = reg.NewGauge("iotsid_par_workers_busy",
			"Worker goroutines currently executing pool units.")
	})
	return poolRuns, poolTasks, poolBusy
}

// Workers resolves a worker-count knob: n if positive, otherwise
// runtime.GOMAXPROCS(0). Configs throughout the repo carry a `Workers int`
// field whose zero value means "use every P the runtime gives us"; this is
// the single place that default is decided.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (Workers-resolved, so workers <= 0 means GOMAXPROCS) and waits for all of
// them. Units must be independent of each other per the package contract.
// The caller's goroutine is one of the workers; each other is a standing
// worker parked between fan-outs, or a new goroutine when none is parked,
// so a fan-out never waits for a worker. Do itself allocates nothing once
// workers stand parked, which lets a request path fan out per request.
//
// Error propagation is deterministic: Do returns the error of the
// lowest-failing index — exactly the error a serial loop would have
// returned, regardless of the order goroutines happen to run in. After a
// unit fails, units with higher indices that have not started yet are
// skipped (a serial loop would never have reached them); units with lower
// indices still run, so the minimal failing index is always discovered.
func Do(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	runs, tasks, busy := poolMetrics()
	runs.Inc()
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		busy.Add(1)
		done := uint64(0)
		defer func() {
			tasks.Add(done)
			busy.Add(-1)
		}()
		for i := 0; i < n; i++ {
			done++
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	f := fanPool.Get().(*fanOut)
	f.n, f.fn, f.errIdx = n, fn, n
	f.next.Store(0)
	f.minFailed.Store(int64(n)) // sentinel: nothing failed
	for w := 1; w < workers; w++ {
		f.wg.Add(1)
		select {
		case parked <- f:
		default:
			go work(f)
		}
	}
	func() {
		defer f.wg.Wait() // even when a unit panics: no worker outlives the call
		f.run()
	}()
	err := f.err
	f.fn, f.err = nil, nil
	fanPool.Put(f)
	return err
}

// fanOut is one parallel Do call, shared by its workers. Do pools them, so
// a fan-out allocates nothing once warm.
type fanOut struct {
	n         int
	fn        func(i int) error
	next      atomic.Int64 // the next index to claim
	minFailed atomic.Int64 // lowest failing index seen so far
	mu        sync.Mutex
	errIdx    int   // index whose error is held in err
	err       error // under mu
	wg        sync.WaitGroup
}

var fanPool = sync.Pool{New: func() any { return new(fanOut) }}

// Standing workers: a goroutine Do starts parks on parked after its first
// fan-out while fewer than maxStanding others stand, and then serves every
// fan-out handed to it for the life of the process; the rest exit. A send
// on the unbuffered channel succeeds only to a parked worker.
var (
	parked      = make(chan *fanOut)
	standing    atomic.Int64
	maxStanding = int64(runtime.GOMAXPROCS(0))
)

// work is a worker Do started for f.
func work(f *fanOut) {
	f.run()
	f.wg.Done()
	if standing.Add(1) > maxStanding {
		standing.Add(-1)
		return
	}
	for f := range parked {
		f.run()
		f.wg.Done()
	}
}

// run claims and runs f's units until none is left.
func (f *fanOut) run() {
	_, tasks, busy := poolMetrics()
	busy.Add(1)
	done := uint64(0)
	defer func() {
		tasks.Add(done)
		busy.Add(-1)
	}()
	for {
		i := f.next.Add(1) - 1
		if i >= int64(f.n) {
			return
		}
		// Skip units a serial loop would not have reached — but keep
		// running indices below the current minimum failure so the
		// serial-equivalent (lowest) error is always found.
		if i > f.minFailed.Load() {
			continue
		}
		done++
		if e := f.fn(int(i)); e != nil {
			f.mu.Lock()
			if int(i) < f.errIdx {
				f.errIdx, f.err = int(i), e
			}
			f.mu.Unlock()
			for {
				cur := f.minFailed.Load()
				if i >= cur || f.minFailed.CompareAndSwap(cur, i) {
					break
				}
			}
		}
	}
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order — slot i holds fn(i)'s value. On error
// it returns the lowest-failing index's error and a nil slice.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
