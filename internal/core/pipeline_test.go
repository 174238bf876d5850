package core

import (
	"fmt"
	"sync"
	"testing"

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
	const capacity = 64
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
}

func TestDecisionLogRecent(t *testing.T) {
	l := newDecisionLog(128)
	for i := 0; i < 30; i++ {
		appendFor(l, fmt.Sprintf("dev-%d", i%7), fmt.Sprintf("op-%d", i))
	}
	recent := l.recent(5)
	if len(recent) != 5 {
		t.Fatalf("recent(5) = %d entries", len(recent))
	}
	for i, e := range recent {
		if e.Op != fmt.Sprintf("op-%d", 25+i) {
			t.Fatalf("recent[%d] = %+v", i, e)
		}
	}
	if got := l.recent(1000); len(got) != 30 {
		t.Fatalf("recent(1000) = %d", len(got))
	}
	if got := l.recent(-1); len(got) != 0 {
		t.Fatalf("recent(-1) = %d", len(got))
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
