package fleet

import (
	"iotsid/internal/core"
	"iotsid/internal/sensor"
)

// HomeLog returns a home's decision ring, for the package's external
// tests.
func HomeLog(h *Home) []core.LogEntry { return h.stage.Log() }

// HomeScene returns a copy of a home's view, read under the view's lock,
// and whether the home has one, for the package's external tests.
func HomeScene(h *Home) (sensor.Snapshot, bool) {
	v := h.view.Load()
	if v == nil {
		return sensor.Snapshot{}, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.snap.Clone(), true
}
