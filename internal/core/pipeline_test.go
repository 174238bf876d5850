package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func newDecisionLog(capacity int) *decisionLog {
	return &decisionLog{buf: make([]logSlot, capacity)}
}

// appendFor logs one allowed decision for a device.
func appendFor(l *decisionLog, device string, op string) {
	l.append(instr.Instruction{Op: op, DeviceID: device}, sensor.Snapshot{}, Decision{Allowed: true, Reason: op})
}

// TestDecisionLogOrdersAcrossShards: entries for many devices (the old
// log's shard key) come back in append order, numbered from 1.
func TestDecisionLogOrdersAcrossShards(t *testing.T) {
	l := newDecisionLog(128)
	for i := 0; i < 50; i++ {
		appendFor(l, fmt.Sprintf("dev-%d", i), fmt.Sprintf("op-%d", i))
	}
	got := l.snapshot()
	if len(got) != 50 {
		t.Fatalf("snapshot = %d entries", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d — not globally ordered", i, e.Seq)
		}
		if e.Op != fmt.Sprintf("op-%d", i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestDecisionLogStaysBounded(t *testing.T) {
	for _, capacity := range []int{1, 64} {
		t.Run(fmt.Sprintf("capacity_%d", capacity), func(t *testing.T) {
			l := newDecisionLog(capacity)
			// Overflow the ring many times over.
			for i := 0; i < 10*capacity; i++ {
				appendFor(l, "dev-hot", fmt.Sprintf("op-%d", i))
			}
			got := l.snapshot()
			if len(got) != capacity {
				t.Fatalf("log retained %d entries, want capacity %d", len(got), capacity)
			}
			// The retained entries are the newest ones, in order.
			for i := 1; i < len(got); i++ {
				if got[i].Seq != got[i-1].Seq+1 {
					t.Fatalf("retained entries not contiguous: %d then %d", got[i-1].Seq, got[i].Seq)
				}
			}
			if got[len(got)-1].Op != fmt.Sprintf("op-%d", 10*capacity-1) {
				t.Fatalf("newest retained = %+v", got[len(got)-1])
			}
		})
	}
}

func TestDecisionLogConcurrentAppend(t *testing.T) {
	l := newDecisionLog(4096)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				appendFor(l, fmt.Sprintf("dev-%d-%d", g, i), "op")
			}
		}(g)
	}
	// Concurrent readers must see a consistent, ordered view.
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < 50; i++ {
				snap := l.snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Seq <= snap[j-1].Seq {
						t.Error("snapshot out of order")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	rwg.Wait()
	if got := l.snapshot(); len(got) != goroutines*perG {
		t.Fatalf("retained %d of %d appends", len(got), goroutines*perG)
	}
}

// TestDecisionLogZeroCapacity: a ring built with no room retains nothing
// and does not fault.
func TestDecisionLogZeroCapacity(t *testing.T) {
	l := newDecisionLog(0)
	appendFor(l, "dev", "op")
	if got := l.snapshot(); len(got) != 0 {
		t.Fatalf("zero-capacity log retained %d entries", len(got))
	}
}

// checkTableBounds fails when a ring's intern tables exceed what its live
// slots can reference: four strings and one entry per slot.
func checkTableBounds(t *testing.T, l *decisionLog) {
	t.Helper()
	if l.tables == nil {
		return
	}
	if n, max := len(l.tables.strs.vals), 4*len(l.buf); n > max {
		t.Fatalf("string table holds %d values, want <= %d", n, max)
	}
	if n, max := len(l.tables.entries.vals), len(l.buf); n > max {
		t.Fatalf("entry table holds %d values, want <= %d", n, max)
	}
}

// TestDecisionLogMatchesReference drives the packed ring and a ring of
// plain LogEntry values with the same random decisions — every outcome,
// state, model and evidence shape, and device pools on both sides of the
// scan-to-map switch — and requires Log() to return exactly what the
// plain ring holds.
func TestDecisionLogMatchesReference(t *testing.T) {
	entries := []*Entry{new(Entry), new(Entry), new(Entry)}
	models := append([]dataset.Model{""}, dataset.Models()...)
	base := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	for _, capacity := range []int{1, 3, 64} {
		for _, devices := range []int{4, 500} {
			t.Run(fmt.Sprintf("capacity_%d_devices_%d", capacity, devices), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity*1000 + devices)))
				l := newDecisionLog(capacity)
				var want []LogEntry
				for i := 0; i < 20*capacity+50; i++ {
					in := instr.Instruction{Op: fmt.Sprintf("op-%d", rng.Intn(5)), DeviceID: fmt.Sprintf("dev-%d", rng.Intn(devices))}
					if rng.Intn(10) == 0 {
						in.DeviceID = ""
					}
					var snap sensor.Snapshot
					if rng.Intn(4) != 0 {
						snap.At = base.Add(time.Duration(rng.Int63n(1e12)))
					}
					dec := Decision{
						Allowed:   rng.Intn(2) == 0,
						Sensitive: rng.Intn(2) == 0,
						Outcome:   Outcome(rng.Intn(int(OutcomeCount))),
						State:     ContextState(rng.Intn(4)),
						Model:     models[rng.Intn(len(models))],
						Reason:    fmt.Sprintf("reason-%d", rng.Intn(7)),
					}
					if rng.Intn(3) == 0 {
						why := fmt.Sprintf("%s blocked; missing required source(s): s%d", in.Op, rng.Intn(3))
						dec.missing = &why
					} else {
						dec.entry = entries[rng.Intn(len(entries))]
						dec.leaf = int32(rng.Intn(40))
					}
					l.append(in, snap, dec)
					e := LogEntry{Seq: uint64(i + 1), Op: in.Op, DeviceID: in.DeviceID, Decision: dec}
					if !snap.At.IsZero() {
						e.At = snap.At
					}
					if want = append(want, e); len(want) > capacity {
						want = want[1:]
					}
					checkTableBounds(t, l)
				}
				if 4*capacity > internScanMax && devices > internScanMax && l.tables.strs.index == nil {
					t.Fatal("the stream never took the string table past internScanMax")
				}
				if got := l.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Log() differs from the plain ring:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestDecisionLogReleasesEvicted: once every slot referencing a value has
// been overwritten, the ring's tables no longer hold it — an old model
// entry or a request's device string lives exactly as long as a slot
// references it.
func TestDecisionLogReleasesEvicted(t *testing.T) {
	l := newDecisionLog(4)
	old, cur := new(Entry), new(Entry)
	l.append(instr.Instruction{Op: "op", DeviceID: "old-dev"}, sensor.Snapshot{}, Decision{Reason: "r", entry: old})
	for i := 0; i < 4; i++ {
		l.append(instr.Instruction{Op: "op", DeviceID: "dev"}, sensor.Snapshot{}, Decision{Reason: "r", entry: cur})
	}
	for _, e := range l.tables.entries.vals {
		if e == old {
			t.Fatal("entry table still holds an entry no slot references")
		}
	}
	for _, s := range l.tables.strs.vals {
		if s == "old-dev" {
			t.Fatal("string table still holds a device ID no slot references")
		}
	}
}

// TestPipelineHostileDeviceStream: a home sent ten ring-fulls of decisions,
// each naming a device never seen before, keeps its intern tables within
// their bound, and its log still shows each retained decision's own
// device.
func TestPipelineHostileDeviceStream(t *testing.T) {
	const capacity = 64
	j, err := NewJudger(detectorForTest(t), memoryForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(PipelineConfig{Judger: j, LogCapacity: capacity})
	legal, attack := legalCtx(t, dataset.ModelWindow), attackCtx(t, dataset.ModelWindow)
	for i := 0; i < 10*capacity; i++ {
		snap := legal
		if i%3 == 0 {
			snap = attack
		}
		p.Decide(buildInstr(t, "window.open", fmt.Sprintf("intruder-%d", i)), snap, ContextOK, nil)
		checkTableBounds(t, &p.log)
	}
	log := p.Log()
	if len(log) != capacity {
		t.Fatalf("log retained %d entries, want %d", len(log), capacity)
	}
	for _, e := range log {
		if want := fmt.Sprintf("intruder-%d", e.Seq-1); e.DeviceID != want {
			t.Fatalf("entry %d shows device %q, want %q", e.Seq, e.DeviceID, want)
		}
		if e.Decision.Explain() == "" {
			t.Fatalf("entry %d lost its explanation", e.Seq)
		}
	}
}

// TestNewPipelineRejectsOversizedRing: a ring past MaxLogCapacity could
// need more table values than its 16-bit indices address.
func TestNewPipelineRejectsOversizedRing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipeline accepted a ring past MaxLogCapacity")
		}
	}()
	NewPipeline(PipelineConfig{LogCapacity: MaxLogCapacity + 1})
}

// TestDecideAnswersUnjudgeable: Decide answers a sensitive instruction the
// tree cannot judge with a logged fail-closed decision. A scene lacking a
// feature the model reads is missing context, explained by the feature; a
// model with no trained tree fails closed as ReasonUnjudged, explained by
// the error. A non-sensitive instruction is still allowed.
func TestDecideAnswersUnjudgeable(t *testing.T) {
	open := buildInstr(t, "window.open", "window-1")
	incomplete := legalCtx(t, dataset.ModelWindow)
	incomplete.Delete(sensor.FeatAirQuality)
	trained, err := NewJudger(detectorForTest(t), memoryForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	untrained, err := NewJudger(detectorForTest(t), NewFeatureMemory())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		judger  *Judger
		snap    sensor.Snapshot
		state   ContextState
		reason  string
		explain string
	}{
		{"incomplete scene", trained, incomplete, ContextMissing, ReasonMissing, `missing feature "air_quality" for model window`},
		{"no trained model", untrained, legalCtx(t, dataset.ModelWindow), ContextOK, ReasonUnjudged, "no trained model for window"},
	} {
		p := NewPipeline(PipelineConfig{Judger: tc.judger, LogCapacity: 4})
		dec := p.Decide(open, tc.snap, ContextOK, nil)
		if dec.Allowed || !dec.Sensitive || dec.Outcome != OutcomeFailClosed || dec.State != tc.state ||
			dec.Reason != tc.reason || !strings.Contains(dec.Explain(), tc.explain) {
			t.Errorf("%s: decided %+v explained %q, want a fail-closed %q naming %q", tc.name, dec, dec.Explain(), tc.reason, tc.explain)
		}
		if log := p.Log(); len(log) != 1 || log[0].Decision.Reason != tc.reason || log[0].Decision.Explain() != dec.Explain() {
			t.Errorf("%s: ring holds %+v, want the one decision", tc.name, log)
		}
		if dec := p.Decide(buildInstr(t, "vacuum.start", "vacuum-1"), tc.snap, ContextOK, nil); !dec.Allowed {
			t.Errorf("%s: non-sensitive instruction decided %+v, want allowed", tc.name, dec)
		}
	}
}

// TestLoggedString: the ring hands back its own copy of a string a
// retained decision references, found through the newest slot's device,
// by a scan, or through the map a large table builds, and misses a string
// no retained slot references, one evicted included. Neither a hit nor a
// miss allocates.
func TestLoggedString(t *testing.T) {
	p := NewPipeline(PipelineConfig{LogCapacity: 32})
	if _, ok := p.LoggedString([]byte("dev-1")); ok {
		t.Fatal("an empty ring resolved a string")
	}
	dev1, dev2 := strings.Clone("dev-1"), strings.Clone("dev-2")
	p.log.append(instr.Instruction{Op: "op", DeviceID: dev1}, sensor.Snapshot{}, Decision{Reason: "r"})
	requireLogged := func(b string, want string) {
		t.Helper()
		got, ok := p.LoggedString([]byte(b))
		if !ok || unsafe.StringData(got) != unsafe.StringData(want) {
			t.Fatalf("LoggedString(%q) = %q, %v; want the ring's own %q", b, got, ok, want)
		}
	}
	requireLogged("dev-1", dev1) // the newest slot's device
	p.log.append(instr.Instruction{Op: "op", DeviceID: dev2}, sensor.Snapshot{}, Decision{Reason: "r"})
	requireLogged("dev-1", dev1) // by a scan
	requireLogged("dev-2", dev2)
	for _, b := range []string{"dev-3", "", "dev-"} {
		if got, ok := p.LoggedString([]byte(b)); ok {
			t.Fatalf("LoggedString(%q) = %q, want a miss", b, got)
		}
	}
	// Thirty-two distinct ops, devices and reasons pass internScanMax, so the
	// table looks up through its map; the first two slots are evicted.
	var devs []string
	for i := range 32 {
		devs = append(devs, fmt.Sprintf("d-%d", i))
		p.log.append(instr.Instruction{Op: fmt.Sprintf("o-%d", i), DeviceID: devs[i]}, sensor.Snapshot{}, Decision{Reason: fmt.Sprintf("r-%d", i)})
	}
	if p.log.tables.strs.index == nil {
		t.Fatal("the table did not build its map")
	}
	requireLogged("d-7", devs[7])
	for _, b := range []string{"dev-1", "dev-2"} {
		if got, ok := p.LoggedString([]byte(b)); ok {
			t.Fatalf("LoggedString(%q) = %q after its slot was evicted, want a miss", b, got)
		}
	}
	if raceEnabled {
		return
	}
	hit, miss := []byte("d-7"), []byte("dev-1")
	if allocs := testing.AllocsPerRun(100, func() {
		p.LoggedString(hit)
		p.LoggedString(miss)
	}); allocs != 0 {
		t.Fatalf("LoggedString allocates %.1f times, want 0", allocs)
	}
}
