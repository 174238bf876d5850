package tree

import "fmt"

// compiledNode is one node of the flattened tree. Internal nodes carry the
// split test and the slice offsets of their children; leaves are marked by
// attr == leafMarker and carry the predicted class in label. The layout is
// chosen so a predict walk touches one contiguous cache line per hop and
// never follows a heap pointer.
type compiledNode struct {
	threshold float64 // numeric split: x[attr] <= threshold goes left
	attr      int32   // split attribute index, or leafMarker
	category  int32   // categorical split: int(x[attr]) == category goes left
	left      int32   // offset of the left child
	right     int32   // offset of the right child
	label     int32   // predicted class (valid on leaves)
	numeric   bool    // split type
}

const leafMarker = int32(-1)

// Compiled is a trained decision tree flattened into one contiguous node
// slice for allocation-free inference. It predicts identically to the
// *Tree it was compiled from (the property tests assert this) but drops
// everything the hot path does not need: per-node count maps, schema
// strings and child pointers. Compile once, share freely — a Compiled is
// immutable and safe for concurrent use.
type Compiled struct {
	nodes []compiledNode
	width int // attribute count of the source schema
}

// Compile flattens a fitted tree. The nodes are laid out in preorder, so
// the common all-left descent walks forward through memory.
func (t *Tree) Compile() (*Compiled, error) {
	if t.root == nil {
		return nil, fmt.Errorf("tree: cannot compile unfitted tree")
	}
	c := &Compiled{
		nodes: make([]compiledNode, 0, count(t.root)),
		width: t.schema.Len(),
	}
	c.flatten(t.root)
	return c, nil
}

func (c *Compiled) flatten(n *node) int32 {
	idx := int32(len(c.nodes))
	c.nodes = append(c.nodes, compiledNode{attr: leafMarker, label: int32(n.Class)})
	if n.Leaf {
		return idx
	}
	left := c.flatten(n.Left)
	right := c.flatten(n.Right)
	c.nodes[idx] = compiledNode{
		threshold: n.Threshold,
		attr:      int32(n.Attr),
		category:  int32(n.Category),
		left:      left,
		right:     right,
		label:     int32(n.Class),
		numeric:   n.Numeric,
	}
	return idx
}

// Width returns the attribute count of the schema the tree was trained on —
// the length Predict expects of its feature vector.
func (c *Compiled) Width() int { return c.width }

// NodeCount returns the number of flattened nodes.
func (c *Compiled) NodeCount() int { return len(c.nodes) }

// Leaf walks one example to its leaf and returns the leaf's node index.
// Nodes are laid out in preorder, so the index is also the leaf's preorder
// index in the source tree: Tree.ExplainLeaf renders the decision path
// from it. It allocates nothing.
//
//iot:hotpath
func (c *Compiled) Leaf(x []float64) int32 {
	nodes := c.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.attr == leafMarker {
			return i
		}
		v := x[n.attr]
		if n.numeric {
			if v <= n.threshold {
				i = n.left
			} else {
				i = n.right
			}
		} else {
			if int(v) == int(n.category) {
				i = n.left
			} else {
				i = n.right
			}
		}
	}
}

// Label returns the class of the node at index i (a Leaf result).
func (c *Compiled) Label(i int32) int { return int(c.nodes[i].label) }

// Predict labels one example: the class of its leaf. It allocates nothing
// and matches Tree.Predict exactly.
//
//iot:hotpath
func (c *Compiled) Predict(x []float64) int { return c.Label(c.Leaf(x)) }

// PredictInto labels a batch into a caller-provided buffer (the
// allocation-free batch form). out must be at least as long as xs; the
// filled prefix is returned.
//
//iot:hotpath
func (c *Compiled) PredictInto(xs [][]float64, out []int) ([]int, error) {
	if len(out) < len(xs) {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return nil, fmt.Errorf("tree: predict buffer %d short of batch %d", len(out), len(xs))
	}
	for i, x := range xs {
		out[i] = c.Predict(x)
	}
	return out[:len(xs)], nil
}

// PredictAll labels a batch, allocating the result slice.
func (c *Compiled) PredictAll(xs [][]float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = c.Predict(x)
	}
	return out
}
