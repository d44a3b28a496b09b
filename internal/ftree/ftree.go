// Package ftree implements the Fission Hierarchy Tree of §4.3: a
// hierarchical representation of fission transformations that avoids
// materializing split graphs during search. Tree nodes are fission
// candidates (S, D, n); n = 1 marks a disabled candidate, n > 1 a
// sub-graph already split into n parts. Construction follows Algorithm 1
// (memory heat scoring over the dominator tree); the mutation rules of
// §5.1 (Enable, Lift, Disable, Mutate) drive the search.
package ftree

import (
	"cmp"
	"fmt"
	"slices"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
)

// Node is one F-Tree node: a fission candidate with its current state.
type Node struct {
	// T is the resolved transformation (S, Choice); immutable and shared
	// across tree clones.
	T *fission.Trans
	// N is the current fission number: 1 = disabled, >1 = enabled with N
	// sequentially executed parts.
	N int
	// Score is the Equation (4) score the candidate was selected with.
	Score float64
	// Level is the score bucket (1..L) from Algorithm 1.
	Level int

	Parent   *Node
	Children []*Node
}

// Enabled reports whether the node's sub-graph is currently split.
func (n *Node) Enabled() bool { return n.N > 1 }

// HasEnabledAncestor reports whether any ancestor is enabled.
func (n *Node) HasEnabledAncestor() bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Enabled() {
			return true
		}
	}
	return false
}

// HasEnabledDescendant reports whether any descendant is enabled.
func (n *Node) HasEnabledDescendant() bool {
	for _, c := range n.Children {
		if c.Enabled() || c.HasEnabledDescendant() {
			return true
		}
	}
	return false
}

// Tree is the fission hierarchy tree: a forest, one or more roots per
// graph-level dimension.
type Tree struct {
	Roots []*Node
}

// Clone deep-copies the tree structure (sharing the immutable Trans).
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c := &Tree{}
	var cp func(n *Node, parent *Node) *Node
	cp = func(n *Node, parent *Node) *Node {
		m := &Node{T: n.T, N: n.N, Score: n.Score, Level: n.Level, Parent: parent}
		for _, ch := range n.Children {
			m.Children = append(m.Children, cp(ch, m))
		}
		return m
	}
	for _, r := range t.Roots {
		c.Roots = append(c.Roots, cp(r, nil))
	}
	return c
}

// Walk visits every node depth-first.
func (t *Tree) Walk(f func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}

// Size returns the number of candidates in the tree.
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// EnabledNodes returns every enabled node, outermost first.
func (t *Tree) EnabledNodes() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Enabled() {
			out = append(out, n)
		}
	})
	return out
}

// EnabledCover returns the union of sub-graphs covered by enabled nodes.
// Transformation rules must not pick sub-graphs that partly intersect this
// region (§3).
func (t *Tree) EnabledCover() graph.Set {
	var cover graph.Set
	for _, n := range t.EnabledNodes() {
		cover = graph.Union(cover, n.T.S)
	}
	return cover
}

// Options configures F-Tree construction.
type Options struct {
	// MaxLevel is the hyper-parameter L of Algorithms 1 and 3 (default 4).
	MaxLevel int
	// MaxCandidates caps the number of tree nodes (0 = unlimited).
	MaxCandidates int
	// NaiveFission disables Algorithm 1's heat-based selection and instead
	// picks arbitrary valid dominator sub-trees (the naive-fission ablation
	// of §7.2.5).
	NaiveFission bool
}

func (o Options) maxLevel() int {
	if o.MaxLevel > 0 {
		return o.MaxLevel
	}
	return 4
}

// cand is a candidate tree node with the dominator it was built from.
type cand struct {
	*Node
	dom graph.NodeID
}

// Build constructs the F-Tree for g (Algorithm 1). hot is the memory
// hot-spot set H from the current schedule's memory profile. The D-Graph
// components are analyzed one after another, in component order.
func Build(g *graph.Graph, hot graph.Set, opt Options) *Tree {
	d := dgraph.Build(g)
	sc := scratches.Get().(*scratch)
	var cands []cand
	for _, comp := range d.Components() {
		cands = append(cands, sc.candidates(g, d, comp, hot, opt)...)
	}
	scratches.Put(sc)
	// One node can dominate in several components, so equal keys occur;
	// the stable sort leaves them in component order.
	slices.SortStableFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(len(b.T.S), len(a.T.S)); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.dom, b.dom)
	})
	if opt.MaxCandidates > 0 && len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}
	// Nest by set containment into a LAMINAR family: each candidate hangs
	// under the smallest candidate strictly containing it; candidates that
	// partially overlap an already-kept candidate are dropped (enabling
	// two interleaved regions would make collapsed evaluation cyclic).
	t := &Tree{}
	var kept []*Node
	for _, cd := range cands {
		c := cd.Node
		laminar := true
		for _, k := range kept {
			if c.T.S.PartiallyOverlaps(k.T.S) {
				laminar = false
				break
			}
		}
		if !laminar {
			continue
		}
		kept = append(kept, c)
		parent := t.smallestContainer(c)
		if parent == nil {
			t.Roots = append(t.Roots, c)
		} else {
			c.Parent = parent
			parent.Children = append(parent.Children, c)
		}
	}
	return t
}

func (t *Tree) smallestContainer(c *Node) *Node {
	var best *Node
	t.Walk(func(n *Node) {
		if n == c || len(n.T.S) <= len(c.T.S) || !n.T.S.Contains(c.T.S) {
			return
		}
		if best == nil || len(n.T.S) < len(best.T.S) {
			best = n
		}
	})
	return best
}

// String renders the tree for debugging.
func (t *Tree) String() string {
	var b []byte
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, "  "...)
		}
		b = append(b, fmt.Sprintf("|S|=%d n=%d score=%.0f level=%d\n", len(n.T.S), n.N, n.Score, n.Level)...)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
	return string(b)
}
