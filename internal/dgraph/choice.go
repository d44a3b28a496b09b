package dgraph

import (
	"magis/internal/graph"
)

// Choice assigns each node of a fission sub-graph S the axis it is split
// along. A positive axis means the node's output is sliced into parts
// (merged by Concat); a negative axis means each part computes a partial
// reduction (merged by Add). Inputs of S appear with a positive axis when
// they must be sliced per part; absent inputs are shared whole.
type Choice map[graph.NodeID]int

// ChoiceFor resolves the paper's constraint (3) for f = (S, D, n): it
// selects exactly one axis per member of S from the component comp such
// that every internal edge of G[S] is covered by a dimension-graph edge,
// and derives the slicing requirement of each input. It returns false when
// no consistent assignment exists (the fission candidate is invalid along
// this graph-level dimension).
func ChoiceFor(d *DGraph, g *graph.Graph, comp Component, s graph.Set) (Choice, bool) {
	// Candidate axes per member, restricted to the component.
	cands := make(map[graph.NodeID][]int, len(s))
	for _, v := range s {
		// Deterministic preference: positive axes first, ascending, then
		// reduce axes from -1 down.
		run := comp.vertices(v)
		if len(run) == 0 {
			return nil, false // node untouched by this dimension
		}
		reduce := 0
		for reduce < len(run) && run[reduce].Axis < 0 {
			reduce++
		}
		axes := make([]int, 0, len(run))
		for _, dn := range run[reduce:] {
			axes = append(axes, dn.Axis)
		}
		for i := reduce - 1; i >= 0; i-- {
			axes = append(axes, run[i].Axis)
		}
		cands[v] = axes
	}
	// Constraint propagation over internal edges until a fixpoint, then
	// commit the preferred candidate node by node (re-propagating after
	// each commit). The per-edge relation: choice[u] -> choice[v] must be
	// an edge of D.
	type edge struct{ u, v graph.NodeID }
	var edges []edge
	for _, v := range s {
		for _, u := range g.Pre(v) {
			if s.Has(u) {
				edges = append(edges, edge{u, v})
			}
		}
	}
	propagate := func() bool {
		changed := true
		for changed {
			changed = false
			for _, e := range edges {
				// Filter v's candidates to ones reachable from some u cand.
				var keepV []int
				for _, av := range cands[e.v] {
					ok := false
					for _, au := range cands[e.u] {
						if au > 0 && d.feeds(e.u, au, e.v, av) {
							ok = true
							break
						}
					}
					if ok {
						keepV = append(keepV, av)
					}
				}
				if len(keepV) == 0 {
					return false
				}
				if len(keepV) != len(cands[e.v]) {
					cands[e.v] = keepV
					changed = true
				}
				// Filter u's candidates to ones feeding some v cand; a
				// negative (reduce) choice cannot feed anything, so any
				// node with in-S consumers must keep a positive axis.
				var keepU []int
				for _, au := range cands[e.u] {
					if au < 0 {
						continue
					}
					ok := false
					for _, av := range cands[e.v] {
						if d.feeds(e.u, au, e.v, av) {
							ok = true
							break
						}
					}
					if ok {
						keepU = append(keepU, au)
					}
				}
				if len(keepU) == 0 {
					return false
				}
				if len(keepU) != len(cands[e.u]) {
					cands[e.u] = keepU
					changed = true
				}
			}
		}
		return true
	}
	if !propagate() {
		return nil, false
	}
	for _, v := range s {
		if len(cands[v]) == 1 {
			continue
		}
		cands[v] = cands[v][:1]
		if !propagate() {
			return nil, false
		}
	}
	choice := make(Choice, len(s))
	for v, axes := range cands {
		choice[v] = axes[0]
	}
	// Derive input slicing: input u of consumer v (v in S) is sliced along
	// dim i when a link (i -> choice[v]) exists. Conflicting requirements
	// across consumers invalidate the fission.
	for _, v := range s {
		node := g.Node(v)
		for _, u := range node.Ins {
			if s.Has(u) {
				continue
			}
			for _, dn := range d.axes(u) {
				a := dn.Axis
				if a <= 0 {
					continue
				}
				if d.feeds(u, a, v, choice[v]) {
					if prev, ok := choice[u]; ok && prev != a {
						return nil, false
					}
					choice[u] = a
				}
			}
		}
	}
	return choice, true
}
