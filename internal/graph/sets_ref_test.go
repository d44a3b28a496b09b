package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The map-backed node-set operations Set replaced, kept as the test-side
// reference: on random DAGs the sorted-slice operations must agree with
// them exactly.

type refSet map[NodeID]bool

func (s refSet) sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func refClosure(start []NodeID, next func(NodeID) []NodeID) refSet {
	out := make(refSet)
	stack := append([]NodeID(nil), start...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !out[u] {
			out[u] = true
			stack = append(stack, next(u)...)
		}
	}
	return out
}

func refAnc(g *Graph, v NodeID) refSet {
	return refClosure(g.nodes[v].Ins, func(u NodeID) []NodeID { return g.nodes[u].Ins })
}

func refDes(g *Graph, v NodeID) refSet { return refClosure(g.sucList(v), g.sucList) }

func refInps(g *Graph, s refSet) refSet {
	out := make(refSet)
	for v := range s {
		for _, p := range g.nodes[v].Ins {
			if !s[p] {
				out[p] = true
			}
		}
	}
	return out
}

func refOuts(g *Graph, s refSet) refSet {
	out := make(refSet)
	for v := range s {
		sucs := g.sucList(v)
		if len(sucs) == 0 {
			out[v] = true
		}
		for _, c := range sucs {
			if !s[c] {
				out[v] = true
			}
		}
	}
	return out
}

func refIsConvex(g *Graph, s refSet) bool {
	inps := refInps(g, s)
	if len(inps) == 0 {
		return true
	}
	seen := make(refSet)
	var stack []NodeID
	for o := range refOuts(g, s) {
		for _, c := range g.sucList(o) {
			if !s[c] {
				stack = append(stack, c)
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		if s[u] {
			return false
		}
		stack = append(stack, g.sucList(u)...)
	}
	for u := range seen {
		if inps[u] {
			return false
		}
	}
	return true
}

func refComponents(g *Graph, s refSet) [][]NodeID {
	seen := make(refSet)
	var comps [][]NodeID
	for _, v := range s.sorted() {
		if seen[v] {
			continue
		}
		comp := make(refSet)
		stack := []NodeID{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp[u] = true
			for _, w := range append(append([]NodeID(nil), g.nodes[u].Ins...), g.sucList(u)...) {
				if s[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp.sorted())
	}
	return comps
}

func refSubgraph(g *Graph, s refSet) *Graph {
	sub := New()
	for _, v := range g.Topo() {
		if !s[v] {
			continue
		}
		var ins []NodeID
		for _, in := range g.nodes[v].Ins {
			if s[in] {
				ins = append(ins, in)
			}
		}
		n := g.nodes[v]
		if err := sub.AddWithID(v, n.Name, n.Op, ins...); err != nil {
			panic(err)
		}
	}
	if err := sub.SetNextID(g.NextID()); err != nil {
		panic(err)
	}
	return sub
}

func refDomDes(t *DomTree, v NodeID) refSet {
	return refClosure(t.children[v], func(u NodeID) []NodeID { return t.children[u] })
}

// randomSubset draws a member set of g of random density.
func randomSubset(r *rand.Rand, g *Graph) []NodeID {
	var out []NodeID
	p := r.Float64()
	for _, v := range g.NodeIDs() {
		if r.Float64() < p {
			out = append(out, v)
		}
	}
	return out
}

// checkSet fails unless got lists exactly want's members, ascending.
func checkSet(t *testing.T, tag string, got Set, want refSet) {
	t.Helper()
	if w := want.sorted(); !slices.Equal([]NodeID(got), w) {
		t.Fatalf("%s: %v, reference %v", tag, got, w)
	}
}

// checkSubgraph compares two extracted sub-graphs node by node; consumer
// lists compare as multisets, as the reference's arena order differs.
func checkSubgraph(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.NextID() != want.NextID() || !slices.Equal(got.Topo(), want.Topo()) {
		t.Fatalf("%s: sub-graph %v, reference %v", tag, got, want)
	}
	for _, v := range want.NodeIDs() {
		gn, wn := got.Node(v), want.Node(v)
		if gn.Op != wn.Op || gn.Name != wn.Name || !slices.Equal(gn.Ins, wn.Ins) ||
			!slices.Equal(sortedIDs(got.sucList(v)), sortedIDs(want.sucList(v))) {
			t.Fatalf("%s: node %d: sub-graph %v <- %v, reference %v <- %v", tag, v, gn.ID, gn.Ins, wn.ID, wn.Ins)
		}
	}
}

// sortedIDs returns an ascending copy of ids.
func sortedIDs(ids []NodeID) []NodeID {
	s := slices.Clone(ids)
	slices.Sort(s)
	return s
}

// TestSetOpsMatchReference runs every Table 1 operation, sub-graph
// extraction, dominator-tree closure and set-algebra helper against the
// map-backed reference on random DAGs, before and after random edits
// leave holes in the ID range.
func TestSetOpsMatchReference(t *testing.T) {
	seqs := 60
	if testing.Short() {
		seqs = 15
	}
	for seq := 0; seq < seqs; seq++ {
		r := rand.New(rand.NewSource(int64(3000 + seq)))
		g := oracleDAG(r, 4+r.Intn(40))
		for step := 0; step < 3; step++ {
			tag := fmt.Sprintf("seq %d step %d", seq, step)
			dt := Dominators(g)
			for _, v := range g.NodeIDs() {
				checkSet(t, fmt.Sprintf("%s: Anc(%d)", tag, v), g.Anc(v), refAnc(g, v))
				checkSet(t, fmt.Sprintf("%s: Des(%d)", tag, v), g.Des(v), refDes(g, v))
				want := refDomDes(dt, v)
				checkSet(t, fmt.Sprintf("%s: DomTree.Des(%d)", tag, v), dt.Des(v), want)
				want[v] = true
				checkSet(t, fmt.Sprintf("%s: DomTree.DesWith(%d)", tag, v), dt.DesWith(v), want)
			}
			for k := 0; k < 20; k++ {
				ids := randomSubset(r, g)
				if k%4 == 0 && len(ids) > 0 { // dominator sub-trees: the F-Tree's candidates
					ids = dt.Des(ids[0])
				}
				s, ref := NewSet(ids...), make(refSet)
				for _, v := range ids {
					ref[v] = true
				}
				checkSet(t, tag+": NewSet", s, ref)
				checkSet(t, tag+": Inps", g.Inps(s), refInps(g, ref))
				checkSet(t, tag+": Outs", g.Outs(s), refOuts(g, ref))
				if got, want := g.IsConvex(s), refIsConvex(g, ref); got != want {
					t.Fatalf("%s: IsConvex(%v) = %v, reference %v", tag, s, got, want)
				}
				comps := refComponents(g, ref)
				if got := g.Components(s); !slices.EqualFunc(got, comps, slices.Equal) {
					t.Fatalf("%s: Components(%v) = %v, reference %v", tag, s, got, comps)
				}
				if got, want := g.IsWeaklyConnected(s), len(comps) <= 1; got != want {
					t.Fatalf("%s: IsWeaklyConnected(%v) = %v, reference %v", tag, s, got, want)
				}
				checkSubgraph(t, tag+": Subgraph", g.Subgraph(s), refSubgraph(g, ref))
				var want []NodeID
				for _, v := range g.Topo() {
					if ref[v] {
						want = append(want, v)
					}
				}
				if topo := g.TopoWithin(s); !slices.Equal(topo, want) {
					t.Fatalf("%s: TopoWithin(%v) = %v, reference %v", tag, s, topo, want)
				}
			}
			for !mutate(r, g) {
			}
		}
	}
}

// TestSetAlgebraMatchesReference checks NewSet's sort-and-dedup, Has,
// Union, Contains and PartiallyOverlaps against map semantics on random
// small-ID multisets, so overlaps and duplicates are common.
func TestSetAlgebraMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	draw := func() ([]NodeID, refSet) {
		ids := make([]NodeID, r.Intn(12))
		ref := make(refSet)
		for i := range ids {
			ids[i] = NodeID(r.Intn(16))
			ref[ids[i]] = true
		}
		return ids, ref
	}
	for i := 0; i < 2000; i++ {
		aIDs, aRef := draw()
		bIDs, bRef := draw()
		a, b := NewSet(aIDs...), NewSet(bIDs...)
		checkSet(t, "NewSet", a, aRef)
		for v := NodeID(-1); v <= 16; v++ {
			if a.Has(v) != aRef[v] {
				t.Fatalf("%v.Has(%d) = %v", a, v, a.Has(v))
			}
		}
		union := make(refSet)
		inter, onlyA, onlyB := 0, 0, 0
		for v := range aRef {
			union[v] = true
			if bRef[v] {
				inter++
			} else {
				onlyA++
			}
		}
		for v := range bRef {
			union[v] = true
			if !aRef[v] {
				onlyB++
			}
		}
		checkSet(t, fmt.Sprintf("Union(%v, %v)", a, b), Union(a, b), union)
		if got := a.Contains(b); got != (onlyB == 0) {
			t.Fatalf("%v.Contains(%v) = %v", a, b, got)
		}
		if got := a.PartiallyOverlaps(b); got != (inter > 0 && onlyA > 0 && onlyB > 0) {
			t.Fatalf("%v.PartiallyOverlaps(%v) = %v", a, b, got)
		}
	}
}

// refContract is the contraction Contract replaced: add the node, rewire
// each member's consumers outside s in ascending order, reject a cycle by
// a whole-graph TopoE, then remove the members in reverse TopoWithin
// order.
func refContract(g *Graph, s Set, op Op) (NodeID, error) {
	id := g.Add(op, g.Inps(s)...)
	for _, v := range g.Outs(s) {
		for _, c := range g.Suc(v) {
			if c != id && !s.Has(c) {
				g.ReplaceInput(c, v, id)
			}
		}
	}
	if _, err := g.TopoE(); err != nil {
		return Invalid, err
	}
	members := g.TopoWithin(s)
	for i := len(members) - 1; i >= 0; i-- {
		if err := g.Remove(members[i]); err != nil {
			return Invalid, err
		}
	}
	return id, nil
}

// sameGraph fails unless got and want have the same nodes, next ID,
// operators and input lists, and consumer lists in the same order.
func sameGraph(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.NextID() != want.NextID() {
		t.Fatalf("%s: %d nodes, next ID %d; reference %d, %d", tag, got.Len(), got.NextID(), want.Len(), want.NextID())
	}
	for id := NodeID(0); id < want.NextID(); id++ {
		gn, wn := got.Node(id), want.Node(id)
		if (gn == nil) != (wn == nil) {
			t.Fatalf("%s: node %d present %v, reference %v", tag, id, gn != nil, wn != nil)
		}
		if wn == nil {
			continue
		}
		if gn.Op != wn.Op || !slices.Equal(gn.Ins, wn.Ins) || !slices.Equal(got.sucList(id), want.sucList(id)) {
			t.Fatalf("%s: node %d: ins %v, consumers %v; reference %v, %v",
				tag, id, gn.Ins, got.sucList(id), wn.Ins, want.sucList(id))
		}
	}
}

// TestContractMatchesReference contracts random member sets of random
// DAGs, whose consumer lists random edits have left out of ID order, and
// checks that Contract fails exactly when the reference finds a cycle,
// leaves the graph untouched when it fails, and otherwise leaves every
// node, input list and consumer list as the reference does.
func TestContractMatchesReference(t *testing.T) {
	seqs := 60
	if testing.Short() {
		seqs = 15
	}
	op := orOp("Region", 1)
	var ok, refused int
	for seq := 0; seq < seqs; seq++ {
		r := rand.New(rand.NewSource(int64(5000 + seq)))
		g := oracleDAG(r, 4+r.Intn(40))
		for step := 0; step < 3; step++ {
			for k := 0; k < 20; k++ {
				ids := randomSubset(r, g)
				if k%2 == 0 && len(ids) > 0 { // dominator sub-trees are convex
					ids = Dominators(g).DesWith(ids[0])
				}
				if len(ids) == 0 {
					continue
				}
				tag := fmt.Sprintf("seq %d step %d set %d", seq, step, k)
				s := NewSet(ids...)
				got, want := g.Clone(), g.Clone()
				id, err := got.Contract(s, op)
				rid, rerr := refContract(want, s, op)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("%s: Contract(%v) error %v, reference %v", tag, s, err, rerr)
				}
				if err != nil {
					refused++
					sameGraph(t, tag+" (refused)", got, g)
					continue
				}
				ok++
				if id != rid {
					t.Fatalf("%s: node %d, reference %d", tag, id, rid)
				}
				sameGraph(t, tag, got, want)
				if err := Validate(got); err != nil {
					t.Fatalf("%s: contracted graph invalid: %v", tag, err)
				}
			}
			for !mutate(r, g) {
			}
		}
	}
	if ok == 0 || refused == 0 {
		t.Fatalf("%d contractions, %d refusals: both outcomes must be exercised", ok, refused)
	}
}
