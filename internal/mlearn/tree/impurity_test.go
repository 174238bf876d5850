package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapImpurity is impurity as Fit computed it over class counts kept in a
// map[int]int, classes folded in sorted label order. A count kept at zero
// was folded too: the right side of a split held every class of its node.
func mapImpurity(c Criterion, counts map[int]int, n int) float64 {
	if n == 0 {
		return 0
	}
	classes := make([]int, 0, len(counts))
	for cls := range counts {
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	switch c {
	case Gini:
		g := 1.0
		for _, cls := range classes {
			p := float64(counts[cls]) / float64(n)
			g -= p * p
		}
		return g
	default:
		var h float64
		for _, cls := range classes {
			if counts[cls] == 0 {
				continue
			}
			p := float64(counts[cls]) / float64(n)
			h -= p * math.Log2(p)
		}
		return h
	}
}

// TestImpurityMatchesMapCounts holds impurity over class counts in a
// slice, indexed by the ordinal of each label in ascending order, to the
// map-based computation it replaced, bit for bit, on seeded count vectors
// with zero counts both kept in the map and left out of it.
func TestImpurityMatchesMapCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		labels, seen := make([]int, 0, 8), make(map[int]bool)
		for k := 1 + rng.Intn(8); len(labels) < k; {
			if l := rng.Intn(60) - 10; !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		sort.Ints(labels)
		counts, byLabel, n := make([]int, len(labels)), make(map[int]int), 0
		for k, l := range labels {
			c := rng.Intn(200)
			if rng.Intn(3) == 0 {
				c = 0
			}
			counts[k], n = c, n+c
			if c > 0 || rng.Intn(2) == 0 {
				byLabel[l] = c
			}
		}
		for _, crit := range []Criterion{Gini, Entropy, GainRatio} {
			got, want := impurity(crit, counts, n), mapImpurity(crit, byLabel, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %v, counts %v by labels %v: impurity %v, the map-based computation %v",
					trial, crit, counts, labels, got, want)
			}
		}
	}
}
