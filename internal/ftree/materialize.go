package ftree

import (
	"fmt"
	"sort"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
)

// Materialize expands every enabled fission node into an explicit split
// graph, innermost first, and returns the resulting graph. The search
// itself never materializes (it evaluates collapsed regions); this is used
// to emit the final optimized graph and for validation.
//
// Nested fission along the same graph-level dimension cannot always be
// re-resolved after the inner expansion (the inner Slice nodes block the
// dimension); such cases return an error.
func (t *Tree) Materialize(g *graph.Graph) (*graph.Graph, error) {
	enabled := t.EnabledNodes()
	if len(enabled) == 0 {
		return g.Clone(), nil
	}
	// Innermost (deepest) first.
	depth := func(n *Node) int {
		d := 0
		for p := n.Parent; p != nil; p = p.Parent {
			d++
		}
		return d
	}
	sort.SliceStable(enabled, func(i, j int) bool { return depth(enabled[i]) > depth(enabled[j]) })

	cur := g.Clone()
	repl := make(map[graph.NodeID][]graph.NodeID)
	sliceOrigin := make(map[graph.NodeID]graph.NodeID)
	for _, n := range enabled {
		s, probe, err := expandSet(cur, n, repl, sliceOrigin)
		if err != nil {
			return nil, err
		}
		d := dgraph.Build(cur)
		comp := d.ComponentOf(probe)
		if comp == nil {
			return nil, fmt.Errorf("ftree: materialize: dimension of %v vanished", probe)
		}
		tr, err := fission.Resolve(cur, d, comp, s, n.N)
		if err != nil {
			return nil, fmt.Errorf("ftree: materialize: %v", err)
		}
		res, err := tr.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("ftree: materialize: %v", err)
		}
		// Record replacements: every member of s maps to the created
		// replicas and merges (the coarse union suffices — outer regions
		// always absorb the entire inner expansion).
		created := append([]graph.NodeID(nil), res.Replicas...)
		for _, m := range res.Merged {
			created = append(created, m)
		}
		for _, v := range s {
			repl[v] = created
		}
		for sl, src := range res.Slices {
			sliceOrigin[sl] = src
		}
		cur = res.Graph
	}
	return cur, nil
}

// expandSet maps an F-Tree node's original member set onto the current
// graph, following replacements made by deeper materializations, and
// returns a probe dimension for component lookup.
func expandSet(cur *graph.Graph, n *Node, repl map[graph.NodeID][]graph.NodeID, sliceOrigin map[graph.NodeID]graph.NodeID) (graph.Set, dgraph.DimNode, error) {
	var members []graph.NodeID
	stack := append([]graph.NodeID(nil), n.T.S...)
	seen := make(map[graph.NodeID]bool)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if cur.Has(v) {
			members = append(members, v)
			continue
		}
		if rs, ok := repl[v]; ok {
			stack = append(stack, rs...)
		}
	}
	s := graph.NewSet(members...)
	// Anchor the graph-level dimension at a surviving original member.
	var probe dgraph.DimNode
	found := false
	for _, v := range s {
		if a, ok := n.T.Choice[v]; ok && n.T.S.Has(v) {
			probe = dgraph.DimNode{Node: v, Axis: a}
			found = true
			break
		}
	}
	if !found {
		return nil, probe, fmt.Errorf("ftree: no surviving member to anchor dimension")
	}
	// Pull in inner slice nodes whose source landed inside the region;
	// leaving them out would break convexity.
	for {
		var added []graph.NodeID
		for sl, src := range sliceOrigin {
			if cur.Has(sl) && !s.Has(sl) && s.Has(src) {
				added = append(added, sl)
			}
		}
		if len(added) == 0 {
			break
		}
		s = graph.Union(s, graph.NewSet(added...))
	}
	return s, probe, nil
}
