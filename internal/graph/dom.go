package graph

import "slices"

// DomTree is the dominator tree T(G) of a computation graph (§2.1). Because
// computation graphs have many entry nodes (input, label, and weight
// tensors), the tree is rooted at a virtual entry that dominates them all;
// the virtual root is represented by Invalid.
type DomTree struct {
	// Parent maps each node to its immediate dominator; nodes dominated
	// only by the virtual root map to Invalid.
	Parent map[NodeID]NodeID

	children map[NodeID][]NodeID
	order    []NodeID // topological order, for deterministic iteration
}

// Dominators computes the dominator tree of g with Idoms over its
// topological order.
func Dominators(g *Graph) *DomTree {
	topo := g.Topo()
	idx := make([]int32, len(g.nodes))
	for i, v := range topo {
		idx[v] = int32(i)
	}
	off := make([]int32, len(topo)+1)
	for i, v := range topo {
		off[i+1] = off[i] + int32(len(g.nodes[v].Ins))
	}
	pred := make([]int32, off[len(topo)])
	for i, v := range topo {
		for j, p := range g.nodes[v].Ins {
			pred[int(off[i])+j] = idx[p]
		}
	}
	idom := make([]int32, len(topo))
	Idoms(off, pred, idom)
	return buildDomTree(topo, idom)
}

// Idoms is the Cooper-Harvey-Kennedy dominator solver on dense indices.
// The n = len(idom) vertices of a DAG are numbered in a topological
// order, and vertex i's predecessors are pred[off[i]:off[i+1]], each
// below i (duplicates are harmless: the meet is idempotent). Idoms writes
// idom[i], the immediate dominator of i, or -1 when only the virtual root
// above every entry dominates i. A dominator precedes what it dominates,
// so the intersection climbs toward smaller indices, and one pass in
// topological order is exact: every predecessor's dominator is final
// before it is read.
func Idoms(off, pred, idom []int32) {
	for i := range idom {
		ps := pred[off[i]:off[i+1]]
		if len(ps) == 0 {
			idom[i] = -1
			continue
		}
		d := ps[0]
		for _, b := range ps[1:] {
			for d != b {
				for d > b {
					d = idom[d]
				}
				for b > d {
					b = idom[b]
				}
			}
		}
		idom[i] = d
	}
}

// buildDomTree materializes the solved idom array into the map-based
// public structure.
func buildDomTree(topo []NodeID, idom []int32) *DomTree {
	t := &DomTree{
		Parent:   make(map[NodeID]NodeID, len(topo)),
		children: make(map[NodeID][]NodeID),
		order:    topo,
	}
	for i, v := range topo {
		if idom[i] < 0 {
			t.Parent[v] = Invalid
			t.children[Invalid] = append(t.children[Invalid], v)
		} else {
			p := topo[idom[i]]
			t.Parent[v] = p
			t.children[p] = append(t.children[p], v)
		}
	}
	for _, cs := range t.children {
		slices.Sort(cs)
	}
	return t
}

// Children returns T.suc(v): the tree children of v (pass Invalid for the
// virtual root).
func (t *DomTree) Children(v NodeID) []NodeID { return t.children[v] }

// Des returns the strict descendants of v in the dominator tree, i.e. all
// nodes dominated by v other than v itself.
func (t *DomTree) Des(v NodeID) Set { return t.subtrees(t.children[v]) }

// DesWith returns Des(v) plus v itself: the full sub-tree dominated by v.
func (t *DomTree) DesWith(v NodeID) Set { return t.subtrees([]NodeID{v}) }

// subtrees returns the nodes of the sub-trees rooted at roots, ascending.
// A tree walk reaches each node once, so no visited marker is needed.
func (t *DomTree) subtrees(roots []NodeID) Set {
	var out []NodeID
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, t.children[u]...)
	}
	slices.Sort(out)
	return out
}

// Nodes returns the tree's nodes in a topological order of the graph:
// every node after its dominators.
func (t *DomTree) Nodes() []NodeID { return t.order }
