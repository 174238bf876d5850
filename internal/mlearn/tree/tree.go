// Package tree implements the CART-style decision tree the paper selects
// for the context feature memory (§IV-C-2: "suitable for learning from
// small sample data sets, is ideal for numerical data and discrete data,
// and can also obtain the weights of feature attributes"). It supports the
// three split criteria the paper names — information gain, gain ratio and
// Gini impurity — binary splits over numeric and categorical attributes,
// reduced-error pruning, per-feature importance weights (Fig 6) and JSON
// serialisation for the feature memory store.
package tree

import (
	"fmt"
	"math"
	"sort"

	"iotsid/internal/mlearn"
)

// Criterion selects the impurity measure used to grow the tree.
type Criterion int

// Split criteria (§IV-C-2).
const (
	Gini Criterion = iota + 1
	Entropy
	GainRatio
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	case GainRatio:
		return "gain_ratio"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// Config tunes tree growth. The zero value is completed by Fit with
// sensible defaults (Gini, unlimited depth, leaf size 1).
type Config struct {
	Criterion           Criterion `json:"criterion"`
	MaxDepth            int       `json:"max_depth"`             // 0 = unlimited
	MinSamplesSplit     int       `json:"min_samples_split"`     // default 2
	MinSamplesLeaf      int       `json:"min_samples_leaf"`      // default 1
	MinImpurityDecrease float64   `json:"min_impurity_decrease"` // default 0
	// FeatureMask, when non-nil, restricts splits to the attributes whose
	// entry is true (random-subspace ensembles use this). Attributes
	// beyond the mask's length are allowed.
	FeatureMask []bool `json:"feature_mask,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Criterion == 0 {
		c.Criterion = Gini
	}
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// node is one tree node. Exported fields make the tree JSON-serialisable.
type node struct {
	Leaf      bool        `json:"leaf"`
	Class     int         `json:"class"`               // majority class (valid on all nodes)
	Attr      int         `json:"attr,omitempty"`      // split attribute index
	Threshold float64     `json:"threshold,omitempty"` // numeric split: x <= Threshold goes left
	Category  int         `json:"category,omitempty"`  // categorical split: x == Category goes left
	Numeric   bool        `json:"numeric,omitempty"`   // split type
	Samples   int         `json:"samples"`
	Impurity  float64     `json:"impurity"`
	Counts    map[int]int `json:"counts,omitempty"` // training class counts at this node
	Left      *node       `json:"left,omitempty"`
	Right     *node       `json:"right,omitempty"`
}

// Tree is a trained decision tree.
type Tree struct {
	cfg         Config
	schema      mlearn.Schema
	root        *node
	importances []float64 // raw impurity decrease per attribute
	nTrain      int
}

var _ mlearn.Classifier = (*Tree)(nil)

// New builds an untrained tree.
func New(cfg Config) *Tree {
	return &Tree{cfg: cfg.withDefaults()}
}

// Fit grows the tree on the dataset.
func (t *Tree) Fit(d *mlearn.Dataset) error {
	if d.Len() == 0 {
		return fmt.Errorf("tree: empty dataset")
	}
	t.schema = d.Schema
	t.nTrain = d.Len()
	t.importances = make([]float64, d.Schema.Len())
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(d, idx, 0)
	return nil
}

func (t *Tree) grow(d *mlearn.Dataset, idx []int, depth int) *node {
	counts := classCounts(d, idx)
	n := &node{
		Class:    majority(counts),
		Samples:  len(idx),
		Impurity: impurity(t.cfg.Criterion, counts, len(idx)),
		Counts:   counts,
		Leaf:     true,
	}
	if len(counts) <= 1 ||
		len(idx) < t.cfg.MinSamplesSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return n
	}
	best, ok := t.bestSplit(d, idx, n.Impurity)
	if !ok || best.gain <= t.cfg.MinImpurityDecrease {
		return n
	}
	left, right := partition(d, idx, best)
	if len(left) < t.cfg.MinSamplesLeaf || len(right) < t.cfg.MinSamplesLeaf {
		return n
	}
	// Importance: impurity decrease weighted by the fraction of training
	// samples reaching this node.
	t.importances[best.attr] += float64(len(idx)) / float64(t.nTrain) * best.gain
	n.Leaf = false
	n.Attr = best.attr
	n.Numeric = best.numeric
	n.Threshold = best.threshold
	n.Category = best.category
	n.Left = t.grow(d, left, depth+1)
	n.Right = t.grow(d, right, depth+1)
	return n
}

type split struct {
	attr      int
	numeric   bool
	threshold float64
	category  int
	gain      float64
}

func (t *Tree) bestSplit(d *mlearn.Dataset, idx []int, parentImp float64) (split, bool) {
	var cands []candidate
	for attr, a := range d.Schema.Attrs {
		if t.cfg.FeatureMask != nil && attr < len(t.cfg.FeatureMask) && !t.cfg.FeatureMask[attr] {
			continue
		}
		if a.Kind == mlearn.Numeric {
			cands = append(cands, t.numericCandidates(d, idx, attr, parentImp)...)
		} else {
			cands = append(cands, t.categoricalCandidates(d, idx, attr, parentImp, len(a.Categories))...)
		}
	}
	return t.selectCandidate(cands)
}

// candidate is one evaluated split point with its raw impurity decrease and
// its criterion-specific score (equal for gini/entropy; gain ÷ split-info
// for gain ratio).
type candidate struct {
	s     split
	raw   float64
	score float64
}

func (t *Tree) numericCandidates(d *mlearn.Dataset, idx []int, attr int, parentImp float64) []candidate {
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(i, j int) bool { return d.X[sorted[i]][attr] < d.X[sorted[j]][attr] })

	total := classCounts(d, idx)
	leftCounts := make(map[int]int, len(total))
	n := len(sorted)
	var cands []candidate
	for i := 0; i < n-1; i++ {
		leftCounts[d.Y[sorted[i]]]++
		cur, next := d.X[sorted[i]][attr], d.X[sorted[i+1]][attr]
		if cur == next {
			continue
		}
		nl := i + 1
		nr := n - nl
		raw, score := t.splitGain(parentImp, leftCounts, total, nl, nr, n)
		if raw > 0 {
			cands = append(cands, candidate{
				s:   split{attr: attr, numeric: true, threshold: (cur + next) / 2},
				raw: raw, score: score,
			})
		}
	}
	return cands
}

func (t *Tree) categoricalCandidates(d *mlearn.Dataset, idx []int, attr int, parentImp float64, nCats int) []candidate {
	total := classCounts(d, idx)
	n := len(idx)
	var cands []candidate
	for cat := 0; cat < nCats; cat++ {
		leftCounts := make(map[int]int)
		nl := 0
		for _, i := range idx {
			if int(d.X[i][attr]) == cat {
				leftCounts[d.Y[i]]++
				nl++
			}
		}
		if nl == 0 || nl == n {
			continue
		}
		raw, score := t.splitGain(parentImp, leftCounts, total, nl, n-nl, n)
		if raw > 0 {
			cands = append(cands, candidate{
				s:   split{attr: attr, numeric: false, category: cat},
				raw: raw, score: score,
			})
		}
	}
	return cands
}

// selectCandidate picks the winning split among all candidates of a node.
// For gain ratio it applies the C4.5 constraint: only candidates whose raw
// information gain is at least the mean gain over every test examined
// compete on the ratio — otherwise near-empty splits with tiny split-info
// dominate and the tree memorises noise.
func (t *Tree) selectCandidate(cands []candidate) (split, bool) {
	if len(cands) == 0 {
		return split{}, false
	}
	eligible := cands
	if t.cfg.Criterion == GainRatio {
		var sum float64
		for _, c := range cands {
			sum += c.raw
		}
		mean := sum / float64(len(cands))
		filtered := cands[:0:0]
		for _, c := range cands {
			if c.raw >= mean-1e-12 {
				filtered = append(filtered, c)
			}
		}
		eligible = filtered
	}
	best := eligible[0]
	for _, c := range eligible[1:] {
		if c.score > best.score {
			best = c
		}
	}
	best.s.gain = best.score
	return best.s, true
}

// splitGain computes the raw impurity decrease of a binary split and its
// criterion-specific score.
func (t *Tree) splitGain(parentImp float64, leftCounts, total map[int]int, nl, nr, n int) (raw, score float64) {
	rightCounts := make(map[int]int, len(total))
	for c, cnt := range total {
		rightCounts[c] = cnt - leftCounts[c]
	}
	li := impurity(t.cfg.Criterion, leftCounts, nl)
	ri := impurity(t.cfg.Criterion, rightCounts, nr)
	raw = parentImp - (float64(nl)*li+float64(nr)*ri)/float64(n)
	score = raw
	if t.cfg.Criterion == GainRatio {
		si := splitInfo(nl, nr, n)
		if si <= 0 {
			return raw, 0
		}
		score = raw / si
	}
	return raw, score
}

func partition(d *mlearn.Dataset, idx []int, s split) (left, right []int) {
	for _, i := range idx {
		if goesLeft(d.X[i], s.attr, s.numeric, s.threshold, s.category) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

func goesLeft(x []float64, attr int, numeric bool, threshold float64, category int) bool {
	if numeric {
		return x[attr] <= threshold
	}
	return int(x[attr]) == category
}

// Predict labels one example. Calling Predict on an untrained tree returns
// class 0.
func (t *Tree) Predict(x []float64) int {
	if t.root == nil {
		return 0
	}
	return t.leafFor(x).Class
}

// PredictProba returns the training class distribution of the leaf the
// example lands in — the tree's class-probability estimate. An untrained
// tree returns nil.
func (t *Tree) PredictProba(x []float64) map[int]float64 {
	if t.root == nil {
		return nil
	}
	leaf := t.leafFor(x)
	out := make(map[int]float64, len(leaf.Counts))
	if leaf.Samples == 0 || len(leaf.Counts) == 0 {
		out[leaf.Class] = 1
		return out
	}
	for c, n := range leaf.Counts {
		out[c] = float64(n) / float64(leaf.Samples)
	}
	return out
}

func (t *Tree) leafFor(x []float64) *node {
	n := t.root
	for !n.Leaf {
		if goesLeft(x, n.Attr, n.Numeric, n.Threshold, n.Category) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Depth returns the tree depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the number of nodes.
func (t *Tree) NodeCount() int { return count(t.root) }

func count(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + count(n.Left) + count(n.Right)
}

// impurity computes the node impurity for the configured criterion;
// gain-ratio grows on entropy. Classes are folded in sorted order so the
// floating-point sum — and therefore near-tie split selection — is
// deterministic across runs (map iteration order is randomised).
func impurity(c Criterion, counts map[int]int, n int) float64 {
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
	default: // Entropy and GainRatio
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

func splitInfo(nl, nr, n int) float64 {
	var si float64
	for _, k := range []int{nl, nr} {
		if k == 0 {
			continue
		}
		p := float64(k) / float64(n)
		si -= p * math.Log2(p)
	}
	return si
}

func classCounts(d *mlearn.Dataset, idx []int) map[int]int {
	out := make(map[int]int)
	for _, i := range idx {
		out[d.Y[i]]++
	}
	return out
}

func majority(counts map[int]int) int {
	best, bestN := 0, -1
	// Deterministic tie-break: smallest class wins.
	classes := make([]int, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		if counts[c] > bestN {
			best, bestN = c, counts[c]
		}
	}
	return best
}
