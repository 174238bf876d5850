package tree

import (
	"fmt"
	"strings"
)

// PathStep is one comparison taken while routing an example to its leaf.
type PathStep struct {
	Attr      string  `json:"attr"`
	Condition string  `json:"condition"`
	Taken     bool    `json:"taken"` // whether the condition held
	Samples   int     `json:"samples"`
	Impurity  float64 `json:"impurity"`
}

// Explain returns the decision path for one example: every split condition
// the example was tested against, whether it held, and the predicted class
// with the leaf's training support. This is the human-readable counterpart
// of the Fig 6 feature weights — *why* the determiner accepted or rejected
// a context.
func (t *Tree) Explain(x []float64) ([]PathStep, int, error) {
	return t.path(func(n *node) bool {
		return goesLeft(x, n.Attr, n.Numeric, n.Threshold, n.Category)
	})
}

// path walks from the root to a leaf, asking goLeft at every split which
// way to go, and records each split as a step.
func (t *Tree) path(goLeft func(n *node) bool) ([]PathStep, int, error) {
	if t.root == nil {
		return nil, 0, fmt.Errorf("tree: not fitted")
	}
	var steps []PathStep
	n := t.root
	for !n.Leaf {
		attr := t.schema.Attrs[n.Attr]
		var cond string
		if n.Numeric {
			cond = fmt.Sprintf("%s <= %.4g", attr.Name, n.Threshold)
		} else {
			cond = fmt.Sprintf("%s == %s", attr.Name, attr.Categories[n.Category])
		}
		taken := goLeft(n)
		steps = append(steps, PathStep{
			Attr:      attr.Name,
			Condition: cond,
			Taken:     taken,
			Samples:   n.Samples,
			Impurity:  n.Impurity,
		})
		if taken {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return steps, n.Class, nil
}

// ExplainString renders the decision path compactly, e.g.
// "smoke == false ✓ → voice_command == false ✗ → class 1".
func (t *Tree) ExplainString(x []float64) (string, error) {
	steps, class, err := t.Explain(x)
	if err != nil {
		return "", err
	}
	return render(steps, class), nil
}

// ExplainLeaf renders the path to the leaf at preorder index leaf — the
// index Compiled.Leaf returns — as exactly the text ExplainString gives
// for any example that lands in that leaf. Only the leaf is needed, so a
// caller can record the cheap compiled walk and render the path later.
func (t *Tree) ExplainLeaf(leaf int) (string, error) {
	at := 0 // preorder index of the node being routed
	steps, class, err := t.path(func(n *node) bool {
		// The left subtree holds indices at+1 … at+count(n.Left).
		left := leaf <= at+count(n.Left)
		if left {
			at++
		} else {
			at += 1 + count(n.Left)
		}
		return left
	})
	if err != nil {
		return "", err
	}
	if at != leaf {
		return "", fmt.Errorf("tree: node %d is not a leaf", leaf)
	}
	return render(steps, class), nil
}

// render formats a decision path as ExplainString documents.
func render(steps []PathStep, class int) string {
	var b strings.Builder
	for _, s := range steps {
		mark := "✗"
		if s.Taken {
			mark = "✓"
		}
		fmt.Fprintf(&b, "%s %s → ", s.Condition, mark)
	}
	fmt.Fprintf(&b, "class %d", class)
	return b.String()
}
