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
	"slices"
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
	t.root = newGrower(t, d).grow(idx, 0)
	return nil
}

// grower is one Fit's state. It counts classes in slices indexed by a
// class's ordinal among the dataset's labels in ascending order, so a
// count vector folded in index order is folded in label order, as
// impurity requires; the split search reuses its count and ordering
// slices from candidate to candidate.
type grower struct {
	t      *Tree
	d      *mlearn.Dataset
	labels []int // labels[k] is the label of class ordinal k, ascending
	y      []int // y[i] is example i's class ordinal

	left, right, total []int // class counts of a candidate's sides and its node
	sorted             []int // a node's examples ordered by one numeric attribute
}

func newGrower(t *Tree, d *mlearn.Dataset) *grower {
	g := &grower{t: t, d: d, y: make([]int, len(d.Y))}
	g.labels = slices.Clone(d.Y)
	slices.Sort(g.labels)
	g.labels = slices.Compact(g.labels)
	for i, label := range d.Y {
		g.y[i], _ = slices.BinarySearch(g.labels, label)
	}
	k := len(g.labels)
	g.left, g.right, g.total = make([]int, k), make([]int, k), make([]int, k)
	return g
}

// count sets counts to the class counts of the examples idx.
func (g *grower) count(counts []int, idx []int) {
	clear(counts)
	for _, i := range idx {
		counts[g.y[i]]++
	}
}

func (g *grower) grow(idx []int, depth int) *node {
	t := g.t
	counts := make([]int, len(g.labels))
	g.count(counts, idx)
	n := &node{
		Class:    g.majority(counts),
		Samples:  len(idx),
		Impurity: impurity(t.cfg.Criterion, counts, len(idx)),
		Counts:   make(map[int]int),
		Leaf:     true,
	}
	for k, c := range counts {
		if c > 0 {
			n.Counts[g.labels[k]] = c
		}
	}
	if len(n.Counts) <= 1 ||
		len(idx) < t.cfg.MinSamplesSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return n
	}
	best, ok := g.bestSplit(idx, n.Impurity)
	if !ok || best.gain <= t.cfg.MinImpurityDecrease {
		return n
	}
	left, right := partition(g.d, idx, best)
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
	n.Left = g.grow(left, depth+1)
	n.Right = g.grow(right, depth+1)
	return n
}

// majority returns the label of the most frequent class; a tie goes to
// the smallest label.
func (g *grower) majority(counts []int) int {
	best, bestN := 0, 0
	for k, c := range counts {
		if c > bestN {
			best, bestN = g.labels[k], c
		}
	}
	return best
}

type split struct {
	attr      int
	numeric   bool
	threshold float64
	category  int
	gain      float64
}

func (g *grower) bestSplit(idx []int, parentImp float64) (split, bool) {
	var cands []candidate
	g.count(g.total, idx)
	for attr, a := range g.d.Schema.Attrs {
		if mask := g.t.cfg.FeatureMask; mask != nil && attr < len(mask) && !mask[attr] {
			continue
		}
		if a.Kind == mlearn.Numeric {
			cands = g.numericCandidates(cands, idx, attr, parentImp)
		} else {
			cands = g.categoricalCandidates(cands, idx, attr, parentImp, len(a.Categories))
		}
	}
	return g.t.selectCandidate(cands)
}

// candidate is one evaluated split point with its raw impurity decrease and
// its criterion-specific score (equal for gini/entropy; gain ÷ split-info
// for gain ratio).
type candidate struct {
	s     split
	raw   float64
	score float64
}

// numericCandidates appends to cands the splits between consecutive
// distinct values of numeric attribute attr.
func (g *grower) numericCandidates(cands []candidate, idx []int, attr int, parentImp float64) []candidate {
	x := g.d.X
	sorted := append(g.sorted[:0], idx...)
	g.sorted = sorted
	sort.Slice(sorted, func(i, j int) bool { return x[sorted[i]][attr] < x[sorted[j]][attr] })

	clear(g.left)
	n := len(sorted)
	for i := 0; i < n-1; i++ {
		g.left[g.y[sorted[i]]]++
		cur, next := x[sorted[i]][attr], x[sorted[i+1]][attr]
		if cur == next {
			continue
		}
		nl := i + 1
		nr := n - nl
		raw, score := g.splitGain(parentImp, nl, nr, n)
		if raw > 0 {
			cands = append(cands, candidate{
				s:   split{attr: attr, numeric: true, threshold: (cur + next) / 2},
				raw: raw, score: score,
			})
		}
	}
	return cands
}

// categoricalCandidates appends to cands the one-category-versus-rest
// splits of categorical attribute attr.
func (g *grower) categoricalCandidates(cands []candidate, idx []int, attr int, parentImp float64, nCats int) []candidate {
	n := len(idx)
	for cat := 0; cat < nCats; cat++ {
		clear(g.left)
		nl := 0
		for _, i := range idx {
			if int(g.d.X[i][attr]) == cat {
				g.left[g.y[i]]++
				nl++
			}
		}
		if nl == 0 || nl == n {
			continue
		}
		raw, score := g.splitGain(parentImp, nl, n-nl, n)
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

// splitGain computes the raw impurity decrease of the binary split whose
// left side counts g.left, of the node that counts g.total, and its
// criterion-specific score.
func (g *grower) splitGain(parentImp float64, nl, nr, n int) (raw, score float64) {
	crit := g.t.cfg.Criterion
	for k, c := range g.total {
		g.right[k] = c - g.left[k]
	}
	li := impurity(crit, g.left, nl)
	ri := impurity(crit, g.right, nr)
	raw = parentImp - (float64(nl)*li+float64(nr)*ri)/float64(n)
	score = raw
	if crit == GainRatio {
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
// gain-ratio grows on entropy. counts holds the classes in ascending label
// order and is folded in that order, so the floating-point sum — and
// therefore near-tie split selection — is deterministic; a class with no
// examples adds nothing.
func impurity(c Criterion, counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	switch c {
	case Gini:
		g := 1.0
		for _, cnt := range counts {
			if cnt == 0 {
				continue
			}
			p := float64(cnt) / float64(n)
			g -= p * p
		}
		return g
	default: // Entropy and GainRatio
		var h float64
		for _, cnt := range counts {
			if cnt == 0 {
				continue
			}
			p := float64(cnt) / float64(n)
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
