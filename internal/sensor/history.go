package sensor

import "fmt"

// History is a bounded time-series of snapshots — the collector-side
// last-good buffer a MultiCollector keeps per source.
type History struct {
	snaps []Snapshot
	head  int
	size  int
	cap   int
}

// NewHistory builds a history retaining at most capacity snapshots
// (minimum 2).
func NewHistory(capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	return &History{snaps: make([]Snapshot, capacity), cap: capacity}
}

// Push appends a snapshot; out-of-order snapshots (older than the newest
// retained one) are rejected.
func (h *History) Push(s Snapshot) error {
	if h.size > 0 {
		newest := h.at(h.size - 1)
		if s.At.Before(newest.At) {
			return fmt.Errorf("sensor: history push out of order: %v before %v", s.At, newest.At)
		}
	}
	idx := (h.head + h.size) % h.cap
	if h.size == h.cap {
		h.snaps[h.head] = s
		h.head = (h.head + 1) % h.cap
	} else {
		h.snaps[idx] = s
		h.size++
	}
	return nil
}

// at returns the i-th oldest retained snapshot.
func (h *History) at(i int) Snapshot {
	return h.snaps[(h.head+i)%h.cap]
}

// Latest returns the newest snapshot, or false when empty.
func (h *History) Latest() (Snapshot, bool) {
	if h.size == 0 {
		return Snapshot{}, false
	}
	return h.at(h.size - 1), true
}
