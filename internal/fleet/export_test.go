package fleet

import "iotsid/internal/core"

// HomeLog returns a home's decision ring, for the package's external
// tests.
func HomeLog(h *Home) []core.LogEntry { return h.stage.Log() }
