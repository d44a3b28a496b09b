package graph

import (
	"slices"
	"testing"

	"magis/internal/tensor"
)

// testOp is a minimal Op for graph-level tests.
type testOp struct {
	kind  string
	shape tensor.Shape
}

func (t testOp) Kind() string           { return t.kind }
func (t testOp) OutShape() tensor.Shape { return t.shape }
func (t testOp) DType() tensor.DType    { return tensor.F32 }
func (t testOp) AttrKey() string        { return "" }

func op(kind string, dims ...int) Op { return testOp{kind, tensor.S(dims...)} }

// diamond builds a -> {b, c} -> d.
func diamond() (*Graph, [4]NodeID) {
	g := New()
	a := g.Add(op("In", 4))
	b := g.Add(op("B", 4), a)
	c := g.Add(op("C", 4), a)
	d := g.Add(op("D", 4), b, c)
	return g, [4]NodeID{a, b, c, d}
}

func TestAddAndAdjacency(t *testing.T) {
	g, n := diamond()
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if got := g.Pre(n[3]); len(got) != 2 || got[0] != n[1] || got[1] != n[2] {
		t.Errorf("Pre(d) = %v", got)
	}
	if got := g.Suc(n[0]); len(got) != 2 || got[0] != n[1] || got[1] != n[2] {
		t.Errorf("Suc(a) = %v", got)
	}
	if got := g.Inputs(); len(got) != 1 || got[0] != n[0] {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != n[3] {
		t.Errorf("Outputs = %v", got)
	}
}

func TestTopoRespectsDependencies(t *testing.T) {
	g, _ := diamond()
	order := g.Topo()
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range g.NodeIDs() {
		for _, p := range g.Pre(v) {
			if pos[p] >= pos[v] {
				t.Errorf("node %d scheduled before its producer %d", v, p)
			}
		}
	}
}

func TestRemoveRules(t *testing.T) {
	g, n := diamond()
	if err := g.Remove(n[1]); err == nil {
		t.Error("Remove of consumed node should fail")
	}
	if err := g.Remove(n[3]); err != nil {
		t.Errorf("Remove(d): %v", err)
	}
	if err := g.Remove(n[1]); err != nil {
		t.Errorf("Remove(b) after d gone: %v", err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestReplaceInputAndRedirect(t *testing.T) {
	g, n := diamond()
	e := g.Add(op("E", 4), n[0])
	g.ReplaceInput(n[3], n[1], e)
	if got := g.Pre(n[3]); len(got) != 2 || got[0] != n[2] || got[1] != e {
		t.Errorf("Pre(d) after replace = %v", got)
	}
	if len(g.Suc(n[1])) != 0 {
		t.Errorf("b should have no consumers, got %v", g.Suc(n[1]))
	}
	g.RedirectConsumers(n[0], e, e) // everything but e itself moves to e
	if got := g.Suc(n[0]); len(got) != 1 || got[0] != e {
		t.Errorf("Suc(a) after redirect = %v", got)
	}
}

func TestDuplicateInputEdges(t *testing.T) {
	g := New()
	a := g.Add(op("In", 2))
	m := g.Add(op("Mul", 2), a, a) // a used twice
	if got := g.Pre(m); len(got) != 1 {
		t.Errorf("Pre should dedupe, got %v", got)
	}
	b := g.Add(op("In", 2))
	g.ReplaceInput(m, a, b)
	if got := g.Node(m).Ins; got[0] != b || got[1] != b {
		t.Errorf("both slots should be rewired, got %v", got)
	}
	if len(g.Suc(a)) != 0 {
		t.Errorf("a should be unconsumed, got %v", g.Suc(a))
	}
}

func TestAncDes(t *testing.T) {
	g, n := diamond()
	anc := g.Anc(n[3])
	if len(anc) != 3 || !anc.Has(n[0]) || !anc.Has(n[1]) || !anc.Has(n[2]) {
		t.Errorf("Anc(d) = %v", anc)
	}
	des := g.Des(n[0])
	if len(des) != 3 {
		t.Errorf("Des(a) = %v", des)
	}
	if len(g.Anc(n[0])) != 0 || len(g.Des(n[3])) != 0 {
		t.Error("root/leaf closures should be empty")
	}
}

func TestInpsOuts(t *testing.T) {
	g, n := diamond()
	s := NewSet(n[1], n[2])
	inps := g.Inps(s)
	if len(inps) != 1 || !inps.Has(n[0]) {
		t.Errorf("Inps = %v", inps)
	}
	outs := g.Outs(s)
	if len(outs) != 2 || !outs.Has(n[1]) || !outs.Has(n[2]) {
		t.Errorf("Outs = %v", outs)
	}
	// Whole-graph outputs count as outs even without external consumers.
	all := NewSet(n[0], n[1], n[2], n[3])
	outs = g.Outs(all)
	if len(outs) != 1 || !outs.Has(n[3]) {
		t.Errorf("Outs(all) = %v", outs)
	}
}

func TestConvexity(t *testing.T) {
	// a -> b -> c -> d and a -> d: {a, c} is not convex (path a->b->c leaves
	// and re-enters via b? actually {a,c}: a's path to c goes through b
	// outside the set).
	g := New()
	a := g.Add(op("In", 1))
	b := g.Add(op("B", 1), a)
	c := g.Add(op("C", 1), b)
	d := g.Add(op("D", 1), c, a)
	if !g.IsConvex(NewSet(b, c)) {
		t.Error("{b,c} should be convex")
	}
	if g.IsConvex(NewSet(a, c)) {
		t.Error("{a,c} should not be convex (b in between)")
	}
	if !g.IsConvex(NewSet(a, b, c, d)) {
		t.Error("whole graph is convex")
	}
}

func TestWeakConnectivityAndComponents(t *testing.T) {
	g, n := diamond()
	if !g.IsWeaklyConnected(NewSet(n[1], n[2], n[3])) {
		t.Error("{b,c,d} weakly connected via d")
	}
	if g.IsWeaklyConnected(NewSet(n[1], n[2])) {
		t.Error("{b,c} not connected without a or d")
	}
	comps := g.Components(NewSet(n[1], n[2]))
	if len(comps) != 2 {
		t.Errorf("Components = %v", comps)
	}
}

func TestSubgraphExtraction(t *testing.T) {
	g, n := diamond()
	sub := g.Subgraph(NewSet(n[1], n[3]))
	if sub.Len() != 2 {
		t.Fatalf("sub.Len = %d", sub.Len())
	}
	if got := sub.Pre(n[3]); len(got) != 1 || got[0] != n[1] {
		t.Errorf("sub Pre(d) = %v", got)
	}
	if got := sub.Inputs(); len(got) != 1 || got[0] != n[1] {
		t.Errorf("sub Inputs = %v", got)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g, n := diamond()
	dt := Dominators(g)
	if dt.Parent[n[0]] != Invalid {
		t.Errorf("idom(a) = %d", dt.Parent[n[0]])
	}
	if dt.Parent[n[1]] != n[0] || dt.Parent[n[2]] != n[0] {
		t.Error("b and c should be dominated by a")
	}
	if dt.Parent[n[3]] != n[0] {
		t.Errorf("idom(d) = %d, want a (branches merge)", dt.Parent[n[3]])
	}
	des := dt.Des(n[0])
	if len(des) != 3 {
		t.Errorf("Des(a) in tree = %v", des)
	}
}

func TestDominatorsMultiEntry(t *testing.T) {
	// Two independent entries feeding one op: neither dominates the sink.
	g := New()
	x := g.Add(op("In", 1))
	w := g.Add(op("Param", 1))
	m := g.Add(op("Mul", 1), x, w)
	dt := Dominators(g)
	if dt.Parent[m] != Invalid {
		t.Errorf("idom(m) = %d, want virtual root", dt.Parent[m])
	}
	if dt.Parent[x] != Invalid || dt.Parent[w] != Invalid {
		t.Error("entries hang off the virtual root")
	}
}

func TestDominatorsChain(t *testing.T) {
	g := New()
	a := g.Add(op("In", 1))
	b := g.Add(op("B", 1), a)
	c := g.Add(op("C", 1), b)
	dt := Dominators(g)
	if dt.Parent[c] != b || dt.Parent[b] != a {
		t.Errorf("chain dominators wrong: %v", dt.Parent)
	}
}

func TestReachIndexNW(t *testing.T) {
	g, n := diamond()
	r := NewReachIndex(g)
	// b: anc {a}, des {d} -> nw = 4-1-1-1 = 1 (c is independent).
	if got := r.NW(n[1]); got != 1 {
		t.Errorf("NW(b) = %d, want 1", got)
	}
	// a: anc {}, des {b,c,d} -> nw = 0.
	if got := r.NW(n[0]); got != 0 {
		t.Errorf("NW(a) = %d, want 0", got)
	}
	if r.NumAnc(n[3]) != 3 || r.NumDes(n[0]) != 3 {
		t.Error("reach counts wrong")
	}
}

func TestWLHashIsomorphismAndDifference(t *testing.T) {
	g1, _ := diamond()
	// Same structure built in a different insertion order.
	g2 := New()
	a := g2.Add(op("In", 4))
	c := g2.Add(op("C", 4), a)
	b := g2.Add(op("B", 4), a)
	_ = g2.Add(op("D", 4), b, c)
	if g1.WLHash() != g2.WLHash() {
		t.Error("isomorphic graphs should hash equal")
	}
	g3, n := diamond()
	g3.SetOp(n[1], op("B", 8)) // change a shape
	if g1.WLHash() == g3.WLHash() {
		t.Error("different shapes should hash differently")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, n := diamond()
	c := g.Clone()
	e := c.Add(op("E", 4), n[3])
	if g.Has(e) {
		t.Error("adding to clone must not affect original")
	}
	c.ReplaceInput(n[3], n[1], n[2])
	if got := g.Node(n[3]).Ins; got[0] != n[1] {
		t.Error("clone mutation leaked into original")
	}
	if g.WLHash() == c.WLHash() {
		t.Error("mutated clone should hash differently")
	}
}

func TestRemoveDead(t *testing.T) {
	g, n := diamond()
	e := g.Add(op("E", 4), n[1]) // dead branch off b
	_ = e
	removed := g.RemoveDead([]NodeID{n[3]})
	if removed != 1 || g.Has(e) {
		t.Errorf("RemoveDead removed %d, e present=%v", removed, g.Has(e))
	}
	if !g.Has(n[1]) {
		t.Error("live node removed")
	}
}

func TestTopoEDetectsCycle(t *testing.T) {
	g := New()
	x := g.Add(op("In", 1))
	a := g.Add(op("A", 1), x)
	b := g.Add(op("B", 1), a)
	// Rewire a to consume b: a <-> b cycle.
	g.ReplaceInput(a, x, b)
	if _, err := g.TopoE(); err == nil {
		t.Fatal("cycle not detected")
	}
	defer func() {
		if recover() == nil {
			t.Error("Topo should panic on cycle")
		}
	}()
	g.Topo()
}

func TestReachIndexMatchesBruteForce(t *testing.T) {
	g, n := diamond()
	e := g.Add(op("E", 4), n[3])
	r := NewReachIndex(g)
	for _, v := range g.NodeIDs() {
		if got, want := r.NumAnc(v), len(g.Anc(v)); got != want {
			t.Errorf("NumAnc(%d) = %d, want %d", v, got, want)
		}
		if got, want := r.NumDes(v), len(g.Des(v)); got != want {
			t.Errorf("NumDes(%d) = %d, want %d", v, got, want)
		}
	}
	_ = e
}

func TestSetSliceSorted(t *testing.T) {
	ids := []NodeID{5, 1, 3, 1}
	s := NewSet(ids...)
	if !slices.Equal(s, Set{1, 3, 5}) {
		t.Errorf("NewSet = %v, want [1 3 5]", s)
	}
	if !slices.Equal(ids, []NodeID{5, 1, 3, 1}) {
		t.Errorf("NewSet reordered its argument: %v", ids)
	}
	if !s.Has(3) || s.Has(2) {
		t.Errorf("Has: 3 %v, 2 %v", s.Has(3), s.Has(2))
	}
}
