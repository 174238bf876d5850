package tree

import (
	"math/rand"
	"testing"
)

// TestCompiledPredictZeroAllocs gates the inference fast path: a compiled
// tree walk must not allocate. The framework's instrumented Authorize path
// inherits this bar (internal/core's TestAuthorizeSteadyStateAllocs), so a
// regression here would surface there too — this test pins the blame to the
// tree layer.
func TestCompiledPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr, _ := fittedTree(t, 400, 5)
	c, err := tr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = randomProbe(rng)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if got := c.Label(c.Leaf(probes[i%len(probes)])); got < 0 {
			t.Fatal("negative class")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Compiled.Leaf and Label allocate %.1f objects/op, want 0", allocs)
	}
}
