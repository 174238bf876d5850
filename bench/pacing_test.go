package main

import (
	"testing"
	"time"

	"iotsid/internal/cloud"
)

// fakeClock is a manual clock: sleeping and sending advance it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestOpenLoopChargesStall stalls one send and checks that every request
// due during the stall is charged the wait, in its due-time latency and in
// the generator lag, exactly as the schedule dictates.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		seed    = 7
		rate    = 100 // requests per second
		service = time.Millisecond
		stall   = 300 * time.Millisecond
		stalled = 5 // index of the request that stalls
	)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	calls := 0
	send := func(items []cloud.FleetBatchItem) ([]cloud.FleetResult, error) {
		d := service
		if calls == stalled {
			d = stall
		}
		calls++
		clk.advance(d)
		return make([]cloud.FleetResult, len(items)), nil
	}
	g := newGen(20, seed, mix{})
	sd := &sender{g: g, w: 0, n: 1, size: 1, send: send, now: clk.now, sleep: clk.sleep,
		sched: newSchedule(seed, 0, rate), digests: newDigests(len(g.ids))}
	start := clk.t
	if err := sd.run(start, 0, 2); err != nil {
		t.Fatal(err)
	}
	if len(sd.samples) != 40 {
		t.Fatalf("%d requests, want 40 (20 homes × 2 steps, batch 1)", len(sd.samples))
	}

	sched := newSchedule(seed, 0, rate)
	var prevDone time.Duration
	charged := 0
	for k, s := range sd.samples {
		due := sched.next()
		sent := max(due, prevDone)
		took := service
		if k == stalled {
			took = stall
		}
		if s.lag != sent-due || s.latency != sent+took-due || s.service != took {
			t.Fatalf("request %d: lag %v latency %v service %v; want %v %v %v",
				k, s.lag, s.latency, s.service, sent-due, sent+took-due, took)
		}
		if k > stalled && s.lag > 0 {
			charged++
		}
		prevDone = sent + took
	}
	if charged < 10 {
		t.Fatalf("only %d requests after the stall were charged for it; a %v stall at %d/s should delay about 30", charged, stall, rate)
	}
	if lag := lagP99Ms(sd.samples); lag < float64(stall/time.Millisecond)/2 {
		t.Fatalf("loadgen lag p99 %.3f ms does not show the %v stall", lag, stall)
	}
}

// TestWindowMedians checks that the rate and the process time per decision
// are medians over the windows after the warm-up, that a window without
// decisions gives no process time, and that a run too short for a window
// after the warm-up reports its whole-run values.
func TestWindowMedians(t *testing.T) {
	value := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("no metric %s", name)
		return 0
	}
	run := &httpRun{wall: 10 * time.Second, cpu: 4 * time.Second, tally: tally{items: 2000}}
	for k := 0; k < int(warmup/windowLen); k++ {
		run.windows = append(run.windows, window{wall: windowLen, cpu: windowLen, decisions: 1})
	}
	ms := endToEnd(run, nil)
	if rate, cpu := value(ms, "decisions_per_s"), value(ms, "cpu_us_per_decision"); rate != 200 || cpu != 2000 {
		t.Fatalf("warm-up only: %v decisions/s, %v us/decision; want the whole run's 200 and 2000", rate, cpu)
	}

	run.windows = append(run.windows,
		window{wall: windowLen, cpu: 10 * time.Millisecond, decisions: 100},
		window{wall: windowLen, cpu: 60 * time.Millisecond, decisions: 300},
		window{wall: windowLen, cpu: 20 * time.Millisecond, decisions: 200},
		window{wall: windowLen, cpu: 5 * time.Millisecond, decisions: 0},
	)
	ms = endToEnd(run, nil)
	if rate, want := value(ms, "decisions_per_s"), 150/windowLen.Seconds(); rate != want {
		t.Fatalf("%v decisions/s, want the median window's %v", rate, want)
	}
	if cpu := value(ms, "cpu_us_per_decision"); cpu != 100 {
		t.Fatalf("%v us/decision, want the median window's 100", cpu)
	}
}

// TestScheduleDeterminism checks that a seed fixes the arrival schedule and
// that its mean gap matches the rate.
func TestScheduleDeterminism(t *testing.T) {
	a, b, c := newSchedule(3, 1, 800), newSchedule(3, 1, 800), newSchedule(4, 1, 800)
	differs := false
	var last time.Duration
	for k := 0; k < 4000; k++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("arrival %d: %v vs %v from the same seed", k, x, y)
		}
		differs = differs || x != z
		last = x
	}
	if !differs {
		t.Fatal("seeds 3 and 4 gave the same schedule")
	}
	if mean := last.Seconds() / 4000; mean < 0.9/800 || mean > 1.1/800 {
		t.Fatalf("mean gap %.6f s, want about %.6f s", mean, 1.0/800)
	}
}
