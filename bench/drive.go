package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iotsid/internal/cloud"
)

// sendFunc submits one batch and returns its per-item results.
type sendFunc func(items []cloud.FleetBatchItem) ([]cloud.FleetResult, error)

// sample is one request as its sender saw it.
type sample struct {
	latency time.Duration // closed loop: send to return; open loop: due time to return
	service time.Duration // send to return
	lag     time.Duration // how late the send started: after its due time, or in a closed loop after the previous return
	failed  bool
}

// schedule is one open-loop sender's seeded Poisson arrival process, as
// offsets from the start of the timed phase.
type schedule struct {
	rng  *rand.Rand
	mean float64 // seconds between arrivals
	at   time.Duration
}

func newSchedule(seed int64, sender int, rate float64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed*1000003 + int64(sender))), mean: 1 / rate}
}

func (s *schedule) next() time.Duration {
	s.at += time.Duration(s.rng.ExpFloat64() * s.mean * float64(time.Second))
	return s.at
}

// sender is one client's loop over the homes it owns. A closed-loop sender
// sends each batch once the previous one returned; an open-loop sender
// sends each at its scheduled due time, or as soon as the previous one
// returned when that is later, so a stall delays every later request and
// the delay is charged to each of them.
type sender struct {
	g       *gen
	w, n    int // sender index and count: the sender owns homes i ≡ w (mod n)
	size    int
	send    sendFunc
	now     func() time.Time
	sleep   func(time.Duration)
	sched   *schedule     // nil for a closed loop
	digests []uint64      // shared across senders, each writes only its homes
	decided *atomic.Int64 // when set, counts decided items for the window sampler
	tally   tally
	samples []sample
	steps   int
}

// run sends steps until the run ends: after maxSteps steps when maxSteps is
// positive, else with the first step that starts once length has passed.
func (sd *sender) run(start time.Time, length time.Duration, maxSteps int) error {
	var b batch
	prev := start
	send := func(b *batch) error {
		due := prev
		if sd.sched != nil {
			due = start.Add(sd.sched.next())
			if wait := due.Sub(sd.now()); wait > 0 {
				sd.sleep(wait)
			}
		}
		t0 := sd.now()
		res, err := sd.send(b.items)
		t1 := sd.now()
		failedBefore, failedItems := sd.tally.failedReqs, sd.tally.failed
		sd.tally.record(sd.g, sd.digests, b, res, err)
		if sd.decided != nil {
			sd.decided.Add(int64(len(b.items) - (sd.tally.failed - failedItems)))
		}
		from := t0
		if sd.sched != nil {
			from = due
		}
		sd.samples = append(sd.samples, sample{
			latency: t1.Sub(from),
			service: t1.Sub(t0),
			lag:     t0.Sub(due),
			failed:  sd.tally.failedReqs > failedBefore,
		})
		prev = t1
		return nil
	}
	for s := 0; ; s++ {
		final := s == maxSteps-1 || (maxSteps <= 0 && sd.now().Sub(start) >= length)
		if err := sd.g.step(&b, sd.w, sd.n, s, final, sd.size, send); err != nil {
			return err
		}
		if final {
			sd.steps = s + 1
			return nil
		}
	}
}

// httpRun is the untraced run over HTTP: what the clients saw plus the
// process counters read across the timed phase.
type httpRun struct {
	wall       time.Duration
	windows    []window // the timed phase in windowLen slices, warm-up included
	steps      []int    // per sender
	tally      tally
	digest     string
	samples    []sample
	cpu        time.Duration // user+sys of the whole process
	allocBytes uint64
	gcPauses   []time.Duration
	gcCycles   uint32
	lowTrust   int
	seqAnoms   uint64
	pushes     float64 // fleet counter deltas
	failClosed float64
	decided    float64
}

// runHTTP drives g's stream through st's server from `clients` logged-in
// clients, one connection each.
func runHTTP(st *stack, g *gen, wl workload, seed int64, length time.Duration, maxSteps int) (*httpRun, error) {
	digests := newDigests(len(g.ids))
	var decided atomic.Int64
	senders := make([]*sender, clients)
	var first *cloud.Client
	for w := range senders {
		c, err := cloud.NewClient(st.srv.URL())
		if err != nil {
			return nil, err
		}
		if err := c.Login(gatewayUser, gatewaySecret); err != nil {
			return nil, err
		}
		if first == nil {
			first = c
		}
		sd := &sender{g: g, w: w, n: clients, size: wl.batch, send: c.FleetAuthorize,
			now: time.Now, sleep: time.Sleep, digests: digests, decided: &decided}
		if wl.open {
			sd.sched = newSchedule(seed, w, wl.rate/clients)
		}
		senders[w] = sd
	}
	rounds, err := g.warmup()
	if err != nil {
		return nil, err
	}
	for _, pushes := range rounds {
		if len(pushes) == 0 {
			continue
		}
		if _, rejected, err := first.FleetPushContext(pushes); err != nil || len(rejected) > 0 {
			return nil, fmt.Errorf("spoof warm-up: %v (%d pushes rejected)", err, len(rejected))
		}
	}

	before, err := readFleetCounters(st)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	done := make(chan struct{})
	var windows []window
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		windows = sampleWindows(&decided, done)
	}()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w, sd := range senders {
		wg.Add(1)
		go func(w int, sd *sender) {
			defer wg.Done()
			errs[w] = sd.run(start, length, maxSteps)
		}(w, sd)
	}
	wg.Wait()
	run := &httpRun{wall: time.Since(start), cpu: cpuTime() - cpu0}
	close(done)
	sampling.Wait()
	run.windows = windows
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	after, err := readFleetCounters(st)
	if err != nil {
		return nil, err
	}
	run.pushes = after.pushes - before.pushes
	run.failClosed = after.failClosed - before.failClosed
	run.decided = after.decided - before.decided
	run.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	run.gcCycles = ms1.NumGC - ms0.NumGC
	for n := ms0.NumGC + 1; n <= ms1.NumGC; n++ {
		if ms1.NumGC-n < uint32(len(ms1.PauseNs)) {
			run.gcPauses = append(run.gcPauses, time.Duration(ms1.PauseNs[(n+255)%256]))
		}
	}
	for _, sd := range senders {
		run.steps = append(run.steps, sd.steps)
		run.tally.add(sd.tally)
		run.samples = append(run.samples, sd.samples...)
	}
	run.digest = combine(digests)
	run.lowTrust = st.fleet.LowTrustHomes()
	run.seqAnoms = st.fleet.SeqAnomalies()
	return run, nil
}

// windowLen is the length of the slices the timed phase is sampled in:
// long enough to span about one GC cycle, which quarter-second windows
// either catch or miss, so that their rates alternate, and short enough
// that a run holds dozens.
const windowLen = 500 * time.Millisecond

// window is one slice of the timed phase.
type window struct {
	wall, cpu time.Duration // cpu: user+sys of the whole process
	decisions int64
}

// sampleWindows cuts the timed phase into windowLen slices until done is
// closed, reading the decided-item count and the process time at each cut.
// The partial slice at the end is dropped.
func sampleWindows(decided *atomic.Int64, done <-chan struct{}) []window {
	tick := time.NewTicker(windowLen)
	defer tick.Stop()
	var out []window
	t0, c0, d0 := time.Now(), cpuTime(), decided.Load()
	for {
		select {
		case <-done:
			return out
		case <-tick.C:
			t1, c1, d1 := time.Now(), cpuTime(), decided.Load()
			out = append(out, window{wall: t1.Sub(t0), cpu: c1 - c0, decisions: d1 - d0})
			t0, c0, d0 = t1, c1, d1
		}
	}
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only on an invalid argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
