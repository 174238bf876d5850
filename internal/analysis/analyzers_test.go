package analysis

import "testing"

// The analyzer self-tests drive the // want harness over seeded fixture
// packages. The synthetic import paths place each fixture in the scope
// its analyzer watches.

func TestNoDetermWant(t *testing.T) {
	RunWant(t, "testdata/src/nodeterm", "iotsid/internal/dataset/fix", NoDeterm)
}

func TestHotAllocWant(t *testing.T) {
	RunWant(t, "testdata/src/hotalloc", "iotsid/internal/core/fix", HotAlloc)
}

func TestSleepBanWant(t *testing.T) {
	RunWant(t, "testdata/src/sleepban", "iotsid/internal/svc/fix", SleepBan)
}

func TestCtxRuleWant(t *testing.T) {
	RunWant(t, "testdata/src/ctxrule", "iotsid/internal/api/fix", CtxRule)
}

func TestErrCheckWant(t *testing.T) {
	RunWant(t, "testdata/src/errcheck", "iotsid/internal/store/fix", ErrCheck)
}

func TestHotCallWant(t *testing.T) {
	RunWant(t, "testdata/src/hotcall", "iotsid/internal/core/fix", HotCall)
}

func TestFailClosedWant(t *testing.T) {
	RunWant(t, "testdata/src/failclosed", "iotsid/internal/core/fix", FailClosed)
}

func TestCowPubWant(t *testing.T) {
	RunWant(t, "testdata/src/cowpub", "iotsid/internal/epoch/fix", CowPub)
}

func TestMetricRegWant(t *testing.T) {
	RunWant(t, "testdata/src/metricreg", "iotsid/internal/obs/fix", MetricReg)
}

// TestScopeSilence: the same violation classes outside internal/ and the
// deterministic scopes produce nothing — no wants, no diagnostics.
func TestScopeSilence(t *testing.T) {
	RunWant(t, "testdata/src/scope", "example.com/tools/fix", All()...)
}

// TestHotAllocOutOfDeterministicScope: hotalloc is annotation-scoped, not
// path-scoped — it fires under any import path.
func TestHotAllocAnyPath(t *testing.T) {
	RunWant(t, "testdata/src/hotalloc", "example.com/tools/fix", HotAlloc)
}

func TestAllStableOrder(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("expected 9 analyzers, got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %s before %s", all[i-1].Name, all[i].Name)
		}
	}
	for _, a := range all {
		if a.Doc == "" {
			t.Fatalf("analyzer %s has no doc", a.Name)
		}
	}
}

func TestPathScopes(t *testing.T) {
	cases := []struct {
		path          string
		det, internal bool
	}{
		{"iotsid/internal/dataset", true, true},
		{"iotsid/internal/mlearn/tree", true, true},
		{"fixture/internal/eval", true, true},
		{"internal/par", true, true},
		{"iotsid/internal/core", false, true},
		{"iotsid/internal/datasetx", false, true},
		{"iotsid/cmd/iotlint", false, false},
		{"example.com/tools", false, false},
	}
	for _, c := range cases {
		if got := inDeterministicScope(c.path); got != c.det {
			t.Errorf("inDeterministicScope(%q) = %v, want %v", c.path, got, c.det)
		}
		if got := inInternal(c.path); got != c.internal {
			t.Errorf("inInternal(%q) = %v, want %v", c.path, got, c.internal)
		}
	}
	if !inCmd("iotsid/cmd/iotlint") || inCmd("iotsid/internal/core") {
		t.Error("inCmd misclassified")
	}
}
