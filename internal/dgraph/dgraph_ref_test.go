package dgraph

import (
	"maps"
	"slices"
	"sort"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/ops"
)

// This file keeps the map-based dimension graph as the differential
// reference for the dense one: vertices keyed by DimNode, adjacency lists
// in maps, and components found by sorting every keyed vertex.

// refDGraph is D(G) with map adjacency.
type refDGraph struct {
	out    map[DimNode][]DimNode
	in     map[DimNode][]DimNode
	byNode map[graph.NodeID][]int
}

func refBuild(g *graph.Graph) *refDGraph {
	d := &refDGraph{
		out:    make(map[DimNode][]DimNode),
		in:     make(map[DimNode][]DimNode),
		byNode: make(map[graph.NodeID][]int),
	}
	for _, v := range g.NodeIDs() {
		spec, ok := g.Node(v).Op.(*ops.Spec)
		if !ok {
			continue
		}
		for a := 1; a <= spec.OutShape().Rank(); a++ {
			d.byNode[v] = append(d.byNode[v], a)
		}
		for r := 1; r <= spec.NumReduceAxes(); r++ {
			d.byNode[v] = append(d.byNode[v], -r)
		}
	}
	for _, v := range g.NodeIDs() {
		spec, ok := g.Node(v).Op.(*ops.Spec)
		if !ok {
			continue
		}
		for idx, u := range g.Node(v).Ins {
			if _, isSpec := g.Node(u).Op.(*ops.Spec); !isSpec {
				continue
			}
			for _, lk := range spec.DimLinks(idx) {
				from := DimNode{u, lk.In}
				to := DimNode{v, lk.Out}
				d.out[from] = append(d.out[from], to)
				d.in[to] = append(d.in[to], from)
			}
		}
	}
	return d
}

func (d *refDGraph) components() []Component {
	seen := make(map[DimNode]bool)
	var keys []DimNode
	for k := range d.out {
		keys = append(keys, k)
	}
	for k := range d.in {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareDimNodes)
	var comps []Component
	for _, k := range keys {
		if seen[k] {
			continue
		}
		var comp Component
		stack := []DimNode{k}
		seen[k] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for _, y := range append(append([]DimNode(nil), d.out[x]...), d.in[x]...) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		if len(comp) >= 2 {
			slices.SortFunc(comp, compareDimNodes)
			comps = append(comps, comp)
		}
	}
	return comps
}

func refChoiceFor(d *refDGraph, g *graph.Graph, comp Component, s graph.Set) (Choice, bool) {
	// Candidate axes per member, restricted to the component.
	cands := make(map[graph.NodeID][]int, len(s))
	for _, v := range s {
		var axes []int
		for _, a := range d.byNode[v] {
			if comp.Has(DimNode{v, a}) {
				axes = append(axes, a)
			}
		}
		if len(axes) == 0 {
			return nil, false // node untouched by this dimension
		}
		// Deterministic preference: positive axes first, ascending.
		sort.Slice(axes, func(i, j int) bool {
			pi, pj := axes[i] > 0, axes[j] > 0
			if pi != pj {
				return pi
			}
			if pi {
				return axes[i] < axes[j]
			}
			return axes[i] > axes[j]
		})
		cands[v] = axes
	}
	// Constraint propagation over internal edges until a fixpoint, then
	// commit the preferred candidate node by node (re-propagating after
	// each commit). The per-edge relation: choice[u] -> choice[v] must be
	// an edge of D.
	edgeOK := func(u graph.NodeID, au int, v graph.NodeID, av int) bool {
		for _, to := range d.out[DimNode{u, au}] {
			if to.Node == v && to.Axis == av {
				return true
			}
		}
		return false
	}
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
						if au > 0 && edgeOK(e.u, au, e.v, av) {
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
						if edgeOK(e.u, au, e.v, av) {
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
			for _, a := range d.byNode[u] {
				if a <= 0 {
					continue
				}
				if edgeOK(u, a, v, choice[v]) {
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

// refGraphs are the inputs of the dimension-graph oracles: the small
// model suite, two random NASNets and an MLP training step.
func refGraphs() []*models.Workload {
	return append(models.SmallSuite(),
		models.RandomNASNet(1, 6, 16, 32, 4),
		models.RandomNASNet(2, 6, 16, 32, 4),
		models.MLP(8, 32, 64, 10, 3))
}

// TestComponentsMatchReference checks that the dense D(G) has the map
// version's components, in the same order, that ComponentOf finds each
// from any of its vertices, and that ChoiceFor resolves the same axes for
// every component's non-leaf members and for every in-component edge.
func TestComponentsMatchReference(t *testing.T) {
	for _, w := range refGraphs() {
		g := w.G
		d, ref := Build(g), refBuild(g)
		got, want := d.Components(), ref.components()
		if len(got) != len(want) {
			t.Fatalf("%s: %d components, want %d", w.Name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: component %d differs", w.Name, i)
			}
			for _, dn := range []DimNode{want[i][0], want[i][len(want[i])/2], want[i][len(want[i])-1]} {
				if c := d.ComponentOf(dn); !slices.Equal(c, want[i]) {
					t.Fatalf("%s: ComponentOf(%v) is not component %d", w.Name, dn, i)
				}
			}
			var sets []graph.Set
			var inner []graph.NodeID
			for _, v := range want[i].GraphNodes() {
				if len(g.Pre(v)) > 0 {
					inner = append(inner, v)
				}
				for _, u := range g.Pre(v) {
					if slices.Contains(want[i].GraphNodes(), u) {
						sets = append(sets, graph.NewSet(u, v))
					}
				}
			}
			sets = append(sets, graph.NewSet(inner...))
			for _, s := range sets {
				c, ok := ChoiceFor(d, g, got[i], s)
				rc, rok := refChoiceFor(ref, g, want[i], s)
				if ok != rok || !maps.Equal(c, rc) {
					t.Fatalf("%s: component %d, S=%v: choice %v (%v), want %v (%v)",
						w.Name, i, s, c, ok, rc, rok)
				}
			}
		}
		if c := d.ComponentOf(DimNode{g.NextID(), 1}); c != nil {
			t.Errorf("%s: ComponentOf an absent node = %v", w.Name, c)
		}
	}
}
