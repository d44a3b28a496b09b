// Package ftree implements the Fission Hierarchy Tree of §4.3: a
// hierarchical representation of fission transformations that avoids
// materializing split graphs during search. Tree nodes are fission
// candidates (S, D, n); n = 1 marks a disabled candidate, n > 1 a
// sub-graph already split into n parts. Construction follows Algorithm 1
// (memory heat scoring over the dominator tree); the mutation rules of
// §5.1 (Enable, Lift, Disable, Mutate) drive the search.
package ftree

import (
	"fmt"
	"slices"
	"sort"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
	"magis/internal/sched"
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

	// domCache retains, per dominator-analysis component (keyed by its
	// main entry node), the derived dominator graph and tree the build
	// computed. BuildFrom seeds the next build's dominator computation
	// from it (graph.DominatorsFrom), re-solving only nodes a rewrite
	// touched. Immutable after Build and shared across Clone.
	domCache map[graph.NodeID]domEntry
}

// domEntry is one cached dominator computation: the pruned component
// subgraph it ran on and the resulting tree.
type domEntry struct {
	g  *graph.Graph
	dt *graph.DomTree
}

// Clone deep-copies the tree structure (sharing the immutable Trans).
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c := &Tree{domCache: t.domCache}
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

// ReleaseCache drops the dominator cache that warm-starts BuildFrom. The
// tree itself is unchanged; a BuildFrom from it afterwards solves every
// component cold and returns the same tree. Clones keep their own handle
// on the cache.
func (t *Tree) ReleaseCache() {
	if t != nil {
		t.domCache = nil
	}
}

// HasCache reports whether the tree still holds a dominator cache.
func (t *Tree) HasCache() bool { return t != nil && t.domCache != nil }

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

// Build constructs the F-Tree for g (Algorithm 1). hot is the memory
// hot-spot set H from the current schedule's memory profile.
func Build(g *graph.Graph, hot graph.Set, opt Options) *Tree {
	return BuildFrom(g, hot, opt, nil)
}

// BuildFrom is Build warm-started from a previous state's tree: each
// component's dominator computation reuses prev's cached result for the
// matching component (same main entry node), re-solving only the nodes
// the intervening rewrite dirtied. The result is identical to a cold
// Build — DominatorsFrom is exact — only cheaper.
func BuildFrom(g *graph.Graph, hot graph.Set, opt Options, prev *Tree) *Tree {
	L := opt.maxLevel()
	d := dgraph.Build(g)
	// cand is a tree node with the dominator it was built from.
	type cand struct {
		*Node
		dom graph.NodeID
	}
	var cands []cand
	domCache := make(map[graph.NodeID]domEntry)
	var notInnermost graph.IDTable
	for _, comp := range d.Components() {
		compNodes := comp.GraphNodes()
		sub := g.Subgraph(compNodes)
		if sub.Len() < 2 {
			continue
		}
		// §2.1: the dominator tree takes THE input tensor as entry.
		// Secondary entries of the component (labels, positions, sliced
		// side inputs) must not break domination, so the tree is computed
		// with their edges removed; the nodes themselves remain available
		// as sliced inputs of candidates.
		domGraph := sub
		key := graph.Invalid
		if entries := sub.Inputs(); len(entries) == 1 {
			key = entries[0]
		} else if len(entries) > 1 {
			main := entries[0]
			best := -1
			for _, e := range entries {
				if n := len(sub.Des(e)); n > best {
					best = n
					main = e
				}
			}
			var pruned []graph.NodeID
			for _, v := range compNodes {
				if v == main || !slices.Contains(entries, v) {
					pruned = append(pruned, v)
				}
			}
			domGraph = g.Subgraph(graph.NewSet(pruned...))
			key = main
		}
		var dt *graph.DomTree
		if prev != nil && key != graph.Invalid {
			if ent, ok := prev.domCache[key]; ok {
				dt = graph.DominatorsFrom(ent.dt, ent.g, domGraph)
			}
		}
		if dt == nil {
			dt = graph.Dominators(domGraph)
		}
		if key != graph.Invalid {
			domCache[key] = domEntry{g: domGraph, dt: dt}
		}
		scores := heatScores(g, domGraph, dt, hot, opt.NaiveFission)
		smax := 0.0
		for _, s := range scores {
			if s > smax {
				smax = s
			}
		}
		if smax <= 0 {
			continue
		}
		for i := 1; i <= L; i++ {
			lo, hi := float64(i)/float64(L), float64(i+1)/float64(L)
			var bucket []graph.NodeID
			for v, s := range scores {
				r := s / smax
				if r >= lo && r < hi {
					bucket = append(bucket, v)
				}
			}
			slices.Sort(bucket)
			// Select dominators whose dominated set contains no other
			// bucket member (Algorithm 1 line 11): walk each member's
			// dominator chain marking proper ancestors as non-innermost.
			notInnermost.Reset(int(g.NextID()))
			for _, w := range bucket {
				for p := dt.Parent[w]; p != graph.Invalid; p = dt.Parent[p] {
					if _, ok := notInnermost.Get(p); ok {
						break
					}
					notInnermost.Put(p, 0)
				}
			}
			for _, vdom := range bucket {
				if _, ok := notInnermost.Get(vdom); ok {
					continue
				}
				s := dt.Des(vdom)
				if len(s) == 0 {
					continue
				}
				tr, err := fission.Resolve(g, d, comp, s, 1)
				if err != nil {
					continue
				}
				if tr.MaxParts(g) < 2 {
					continue
				}
				cands = append(cands, cand{&Node{T: tr, N: 1, Score: scores[vdom], Level: i}, vdom})
			}
		}
	}
	// A total order: each dominator yields at most one candidate.
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].T.S) != len(cands[j].T.S) {
			return len(cands[i].T.S) > len(cands[j].T.S)
		}
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].dom < cands[j].dom
	})
	if opt.MaxCandidates > 0 && len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}
	// Nest by set containment into a LAMINAR family: each candidate hangs
	// under the smallest candidate strictly containing it; candidates that
	// partially overlap an already-kept candidate are dropped (enabling
	// two interleaved regions would make collapsed evaluation cyclic).
	t := &Tree{domCache: domCache}
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

// heatScores computes Equation (3)/(4)'s memory-heat score for every node
// in one O(V) post-order pass over the dominator tree:
//
//	heat(v) = sum of hot-spot bytes strictly dominated by v
//	score(v) = (1 - 1/n) * heat(v)  with n = 2
//
// The exact Equation (4) additionally subtracts the candidate's input
// residency; computing inps(des(v)) for every node is Theta(V^2), so the
// input term is deferred to candidate validation (fission.Resolve) and the
// optimizer's measured evaluation, which subsume it. With naive = true
// every node with a non-trivial dominated set scores 1 (the naive-fission
// ablation).
func heatScores(g, domGraph *graph.Graph, dt *graph.DomTree, hot graph.Set, naive bool) map[graph.NodeID]float64 {
	order := dt.Nodes() // reverse postorder: parents before children
	sub := make(map[graph.NodeID]int64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var s int64
		if hot.Has(v) {
			s = sched.OutDeviceBytes(g.Node(v))
		}
		for _, c := range dt.Children(v) {
			s += sub[c]
		}
		sub[v] = s
	}
	scores := make(map[graph.NodeID]float64, len(order))
	for _, v := range order {
		hasChild := len(dt.Children(v)) > 0
		if !hasChild {
			scores[v] = 0
			continue
		}
		if naive {
			scores[v] = 1
			continue
		}
		own := int64(0)
		if hot.Has(v) {
			own = sched.OutDeviceBytes(g.Node(v))
		}
		scores[v] = 0.5 * float64(sub[v]-own)
	}
	return scores
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
