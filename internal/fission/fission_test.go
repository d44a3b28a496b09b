package fission

import (
	"testing"

	"magis/internal/dgraph"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// mlpTrain reproduces the Fig. 5 structure: a forward matmul + ReLU with a
// weight-gradient matmul reducing over batch, ending in an SGD update.
func mlpTrain() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	x := g.AddNamed("x", ops.NewInput(tensor.S(32, 64), tensor.F32))
	w := g.AddNamed("w", ops.NewParam(tensor.S(64, 16), tensor.F32))
	h := g.AddNamed("h", ops.NewMatmul(tensor.S(32, 64), tensor.S(64, 16), false, false, tensor.F32), x, w)
	y := g.AddNamed("y", ops.NewReLU(tensor.S(32, 16), tensor.F32), h)
	gy := g.AddNamed("gy", ops.NewEltwiseBwd("ReLUBwd", tensor.S(32, 16), tensor.S(32, 16), tensor.F32, 1), h, y)
	gw := g.AddNamed("gw", ops.NewMatmul(tensor.S(32, 64), tensor.S(32, 16), true, false, tensor.F32), x, gy)
	upd := g.AddNamed("upd", ops.NewApplySGD(tensor.S(64, 16), tensor.S(64, 16), tensor.F32), w, gw)
	return g, map[string]graph.NodeID{"x": x, "w": w, "h": h, "y": y, "gy": gy, "gw": gw, "upd": upd}
}

func batchComponent(t *testing.T, g *graph.Graph, probe dgraph.DimNode) (*dgraph.DGraph, dgraph.Component) {
	t.Helper()
	d := dgraph.Build(g)
	for _, c := range d.Components() {
		if c.Has(probe) {
			return d, c
		}
	}
	t.Fatal("component not found")
	return nil, nil
}

func TestResolveValidCandidate(t *testing.T) {
	g, n := mlpTrain()
	d, comp := batchComponent(t, g, dgraph.DimNode{Node: n["h"], Axis: 1})
	s := graph.NewSet(n["h"], n["y"], n["gy"], n["gw"])
	tr, err := Resolve(g, d, comp, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxParts(g) != 32 {
		t.Errorf("MaxParts = %d, want 32 (batch)", tr.MaxParts(g))
	}
	if tr.NextParts(g, 2) != 4 {
		t.Errorf("NextParts(2) = %d, want 4", tr.NextParts(g, 2))
	}
	if tr.NextParts(g, 32) != 0 {
		t.Error("no divisor beyond the axis length")
	}
	slicedIn, sharedIn := tr.Inputs(g)
	if len(slicedIn) != 1 || slicedIn[0] != n["x"] {
		t.Errorf("sliced inputs = %v, want [x]", slicedIn)
	}
	if len(sharedIn) != 1 || sharedIn[0] != n["w"] {
		t.Errorf("shared inputs = %v, want [w]", sharedIn)
	}
}

func TestResolveRejectsNonConvex(t *testing.T) {
	g, n := mlpTrain()
	d, comp := batchComponent(t, g, dgraph.DimNode{Node: n["h"], Axis: 1})
	// {h, gy} is not convex: h -> y -> gy passes outside the set.
	if _, err := Resolve(g, d, comp, graph.NewSet(n["h"], n["gy"]), 2); err == nil {
		t.Error("non-convex sub-graph accepted")
	}
}

func TestResolveRejectsDisconnected(t *testing.T) {
	g := graph.New()
	a := g.Add(ops.NewInput(tensor.S(4, 4), tensor.F32))
	b := g.Add(ops.NewReLU(tensor.S(4, 4), tensor.F32), a)
	c := g.Add(ops.NewInput(tensor.S(4, 4), tensor.F32))
	e := g.Add(ops.NewReLU(tensor.S(4, 4), tensor.F32), c)
	d := dgraph.Build(g)
	comps := d.Components()
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	for _, comp := range comps {
		if comp.Has(dgraph.DimNode{Node: b, Axis: 1}) && comp.Has(dgraph.DimNode{Node: e, Axis: 1}) {
			if _, err := Resolve(g, d, comp, graph.NewSet(b, e), 2); err == nil {
				t.Error("disconnected sub-graph accepted")
			}
			return
		}
	}
}

func TestApplyExpandsCorrectly(t *testing.T) {
	g, n := mlpTrain()
	d, comp := batchComponent(t, g, dgraph.DimNode{Node: n["h"], Axis: 1})
	s := graph.NewSet(n["h"], n["y"], n["gy"], n["gw"])
	tr, err := Resolve(g, d, comp, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ng, merged := res.Graph, res.Merged
	if err != nil {
		t.Fatal(err)
	}
	// Original S nodes are gone; x, w, upd survive.
	for _, name := range []string{"h", "y", "gy", "gw"} {
		if ng.Has(n[name]) {
			t.Errorf("original %s still present", name)
		}
	}
	for _, name := range []string{"x", "w", "upd"} {
		if !ng.Has(n[name]) {
			t.Errorf("%s missing after fission", name)
		}
	}
	// gw was a reduce-merged output: its merged node is an Add of full
	// weight-gradient shape, consumed by upd.
	m := merged[n["gw"]]
	if ng.Node(m).Op.Kind() != "Add" {
		t.Errorf("gw merge kind = %s, want Add", ng.Node(m).Op.Kind())
	}
	if !ng.Node(m).Op.OutShape().Equal(tensor.S(64, 16)) {
		t.Errorf("gw merge shape = %v", ng.Node(m).Op.OutShape())
	}
	if pre := ng.Pre(n["upd"]); len(pre) != 2 || (pre[0] != m && pre[1] != m) {
		t.Errorf("upd not rewired to merged gradient: %v", pre)
	}
	// x is sliced: two Slice consumers of x plus the original gw ... gone,
	// so x's consumers are all Slices.
	for _, c := range ng.Suc(n["x"]) {
		if ng.Node(c).Op.Kind() != ops.KindSlice {
			t.Errorf("x consumer %s, want Slice", ng.Node(c).Op.Kind())
		}
	}
	// w is shared: consumed directly by both replica matmuls and upd.
	if got := len(ng.Suc(n["w"])); got != 3 {
		t.Errorf("w consumers = %d, want 3 (2 replicas + upd)", got)
	}
	// The expanded graph is a valid DAG with a valid topo schedule.
	if err := sched.Schedule(ng.Topo()).Validate(ng); err != nil {
		t.Fatal(err)
	}
}

func TestApplyReducesPeakMemory(t *testing.T) {
	// A bottleneck MLP whose intermediates dwarf its input and output:
	// splitting the expansion along batch should reduce peak memory.
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(64, 16), tensor.F32))
	w1 := g.Add(ops.NewParam(tensor.S(16, 4096), tensor.F32))
	w2 := g.Add(ops.NewParam(tensor.S(4096, 16), tensor.F32))
	a := g.Add(ops.NewMatmul(tensor.S(64, 16), tensor.S(16, 4096), false, false, tensor.F32), x, w1)
	b := g.Add(ops.NewReLU(tensor.S(64, 4096), tensor.F32), a)
	c := g.Add(ops.NewMatmul(tensor.S(64, 4096), tensor.S(4096, 16), false, false, tensor.F32), b, w2)
	d := dgraph.Build(g)
	var comp dgraph.Component
	for _, cc := range d.Components() {
		if cc.Has(dgraph.DimNode{Node: a, Axis: 1}) {
			comp = cc
		}
	}
	tr, err := Resolve(g, d, comp, graph.NewSet(a, b, c), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ng := res.Graph
	if err != nil {
		t.Fatal(err)
	}
	sc := &sched.Scheduler{}
	before := sched.PeakOnly(g, sc.ScheduleGraph(g))
	after := sched.PeakOnly(ng, sc.ScheduleGraph(ng))
	if after >= before {
		t.Errorf("fission did not reduce peak: before=%d after=%d", before, after)
	}
}

func TestApplyConcatOutputShape(t *testing.T) {
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(8, 16), tensor.F32))
	r := g.Add(ops.NewReLU(tensor.S(8, 16), tensor.F32), x)
	sink := g.Add(ops.NewGELU(tensor.S(8, 16), tensor.F32), r)
	_ = sink
	d := dgraph.Build(g)
	var comp dgraph.Component
	for _, cc := range d.Components() {
		if cc.Has(dgraph.DimNode{Node: r, Axis: 1}) {
			comp = cc
		}
	}
	tr, err := Resolve(g, d, comp, graph.NewSet(r), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ng, merged := res.Graph, res.Merged
	if err != nil {
		t.Fatal(err)
	}
	m := ng.Node(merged[r])
	if m.Op.Kind() != ops.KindConcat || !m.Op.OutShape().Equal(tensor.S(8, 16)) {
		t.Errorf("merged = %s %v", m.Op.Kind(), m.Op.OutShape())
	}
}

func TestPartSpecsHalveSizes(t *testing.T) {
	g, n := mlpTrain()
	d, comp := batchComponent(t, g, dgraph.DimNode{Node: n["h"], Axis: 1})
	s := graph.NewSet(n["h"], n["y"], n["gy"], n["gw"])
	tr, err := Resolve(g, d, comp, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := tr.PartSpecs(g)
	if err != nil {
		t.Fatal(err)
	}
	if !parts[n["h"]].OutShape().Equal(tensor.S(8, 16)) {
		t.Errorf("h part shape = %v", parts[n["h"]].OutShape())
	}
	// gw keeps its full output (reduce merge) but reads a quarter batch.
	if !parts[n["gw"]].OutShape().Equal(tensor.S(64, 16)) {
		t.Errorf("gw part shape = %v", parts[n["gw"]].OutShape())
	}
	if !parts[n["gw"]].InShape(0).Equal(tensor.S(8, 64)) {
		t.Errorf("gw part input = %v", parts[n["gw"]].InShape(0))
	}
}
