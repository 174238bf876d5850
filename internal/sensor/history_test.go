package sensor

import (
	"testing"
	"time"
)

func histSnap(at time.Time, temp float64, smoke bool) Snapshot {
	s := NewSnapshot(at)
	s.Set(FeatTempIndoor, Number(temp))
	s.Set(FeatSmoke, Bool(smoke))
	return s
}

func TestHistoryPushAndLatest(t *testing.T) {
	h := NewHistory(8)
	if _, ok := h.Latest(); ok {
		t.Error("empty history has a latest")
	}
	for i := 0; i < 5; i++ {
		if err := h.Push(histSnap(testTime.Add(time.Duration(i)*time.Minute), 20+float64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	if h.size != 5 {
		t.Fatalf("len = %d", h.size)
	}
	latest, ok := h.Latest()
	if !ok || !latest.At.Equal(testTime.Add(4*time.Minute)) {
		t.Errorf("latest = %v", latest.At)
	}
	// Out-of-order rejection.
	if err := h.Push(histSnap(testTime, 19, false)); err == nil {
		t.Error("want out-of-order error")
	}
	// Equal timestamp is accepted (same tick, fresher values).
	if err := h.Push(histSnap(testTime.Add(4*time.Minute), 30, false)); err != nil {
		t.Errorf("same-time push: %v", err)
	}
}

func TestHistoryRingEviction(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 10; i++ {
		if err := h.Push(histSnap(testTime.Add(time.Duration(i)*time.Minute), float64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	if h.size != 4 {
		t.Fatalf("len = %d", h.size)
	}
	if n, _ := h.at(0).Number(FeatTempIndoor); n != 6 {
		t.Errorf("oldest retained = %v, want 6", n)
	}
}

func TestHistoryCapacityClamp(t *testing.T) {
	h := NewHistory(0)
	if err := h.Push(histSnap(testTime, 20, false)); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(histSnap(testTime.Add(time.Minute), 21, false)); err != nil {
		t.Fatal(err)
	}
	if h.size != 2 {
		t.Errorf("len = %d, want clamped capacity 2", h.size)
	}
}
