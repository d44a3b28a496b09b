package ftree

import (
	"fmt"
	"strings"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// bottleneck builds x -> mm1 -> relu -> mm2 with a fat hidden layer, the
// classic fission target: hidden activations dominate peak memory.
func bottleneck() *graph.Graph {
	g := graph.New()
	x := g.AddNamed("x", ops.NewInput(tensor.S(64, 32), tensor.F32))
	w1 := g.AddNamed("w1", ops.NewParam(tensor.S(32, 4096), tensor.F32))
	w2 := g.AddNamed("w2", ops.NewParam(tensor.S(4096, 32), tensor.F32))
	h := g.AddNamed("h", ops.NewMatmul(tensor.S(64, 32), tensor.S(32, 4096), false, false, tensor.F32), x, w1)
	r := g.AddNamed("r", ops.NewReLU(tensor.S(64, 4096), tensor.F32), h)
	g.AddNamed("y", ops.NewMatmul(tensor.S(64, 4096), tensor.S(4096, 32), false, false, tensor.F32), r, w2)
	return g
}

func hotspots(g *graph.Graph) graph.Set {
	return sched.Simulate(g, g.Topo()).Hotspots
}

func TestBuildFindsCandidates(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	if tr.Size() == 0 {
		t.Fatal("no fission candidates found")
	}
	tr.Walk(func(n *Node) {
		if n.Enabled() {
			t.Error("fresh tree must be fully disabled")
		}
		if n.T.MaxParts(g) < 2 {
			t.Error("candidate cannot be split")
		}
		if n.Parent != nil {
			for _, v := range n.T.S {
				if !n.Parent.T.S.Has(v) {
					t.Error("child set not contained in parent set")
				}
			}
			if len(n.T.S) >= len(n.Parent.T.S) {
				t.Error("child set not strictly smaller")
			}
		}
	})
}

func TestBuildRespectsMaxCandidates(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{MaxCandidates: 1})
	if tr.Size() > 1 {
		t.Errorf("size = %d, want <= 1", tr.Size())
	}
}

func TestMutationLifecycle(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	muts := tr.Mutations(g)
	if len(muts) == 0 {
		t.Fatal("no mutations on fresh tree")
	}
	for _, m := range muts {
		if m.Kind != Enable {
			t.Errorf("fresh tree offers only Enable, got %v", m.Kind)
		}
	}
	// Enable the first candidate.
	if err := tr.Apply(muts[0]); err != nil {
		t.Fatal(err)
	}
	n := tr.NodeAt(muts[0].Path)
	if !n.Enabled() || n.N != muts[0].NewN {
		t.Fatalf("enable failed: n=%d", n.N)
	}
	// Now Disable and Mutate must be available for that node.
	var sawDisable, sawMutate bool
	for _, m := range tr.Mutations(g) {
		if tr.NodeAt(m.Path) == n {
			switch m.Kind {
			case Disable:
				sawDisable = true
			case Mutate:
				sawMutate = true
				if m.NewN <= n.N {
					t.Errorf("Mutate must increase n: %d -> %d", n.N, m.NewN)
				}
			}
		}
	}
	if !sawDisable || !sawMutate {
		t.Errorf("missing follow-up rules: disable=%v mutate=%v", sawDisable, sawMutate)
	}
	// Lift appears iff the node has a disabled parent.
	if n.Parent != nil {
		found := false
		for _, m := range tr.Mutations(g) {
			if m.Kind == Lift && tr.NodeAt(m.Path) == n {
				found = true
			}
		}
		if !found {
			t.Error("Lift missing for enabled child with disabled parent")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	muts := tr.Mutations(g)
	if len(muts) == 0 {
		t.Skip("no candidates")
	}
	c := tr.Clone()
	if err := c.Apply(muts[0]); err != nil {
		t.Fatal(err)
	}
	if tr.NodeAt(muts[0].Path).Enabled() {
		t.Error("mutating clone affected original")
	}
	if len(c.EnabledNodes()) != 1 || len(tr.EnabledNodes()) != 0 {
		t.Error("enabled bookkeeping wrong after clone")
	}
}

func TestEnabledCover(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	muts := tr.Mutations(g)
	if len(muts) == 0 {
		t.Skip("no candidates")
	}
	if len(tr.EnabledCover()) != 0 {
		t.Error("fresh tree covers nothing")
	}
	tr.Apply(muts[0])
	n := tr.NodeAt(muts[0].Path)
	cover := tr.EnabledCover()
	if len(cover) != len(n.T.S) {
		t.Errorf("cover = %d nodes, want %d", len(cover), len(n.T.S))
	}
}

func TestMaterializeReducesPeak(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	// Enable the largest candidate (first root).
	if len(tr.Roots) == 0 {
		t.Fatal("no roots")
	}
	// The root is the largest candidate (whole pipeline, batch fission).
	target := tr.Roots[0]
	k := smallestParts(g, target)
	if k == 0 {
		t.Fatal("unsplittable target")
	}
	target.N = 4
	if !target.T.DivisibleBy(g, 4) {
		target.N = k
	}
	mg, err := tr.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	sc := &sched.Scheduler{}
	ms := sc.ScheduleGraph(mg)
	if err := ms.Validate(mg); err != nil {
		t.Fatal(err)
	}
	before := sched.PeakOnly(g, sc.ScheduleGraph(g))
	after := sched.PeakOnly(mg, ms)
	if after >= before {
		t.Errorf("materialized fission did not reduce peak: %d -> %d", before, after)
	}
}

func TestMaterializeNoEnabledIsClone(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{})
	mg, err := tr.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if mg.WLHash() != g.WLHash() {
		t.Error("materializing a disabled tree must be the identity")
	}
}

func TestNaiveFissionOption(t *testing.T) {
	g := bottleneck()
	tr := Build(g, hotspots(g), Options{NaiveFission: true})
	// Naive mode still produces a structurally valid tree.
	tr.Walk(func(n *Node) {
		if n.T == nil || len(n.T.S) == 0 {
			t.Error("invalid naive candidate")
		}
	})
}

// TestBuildDeterministic builds the F-Tree of a random NASNet graph, whose
// candidates tie on size and score, many times: the tree must come out the
// same every time, down to each candidate's node set and position.
func TestBuildDeterministic(t *testing.T) {
	g := models.RandomNASNet(1, 24, 32, 64, 16).G
	sc := &sched.Scheduler{}
	hot := sched.Simulate(g, sc.ScheduleGraph(g)).Hotspots
	shape := func(tr *Tree) string {
		var b strings.Builder
		var rec func(n *Node, depth int)
		rec = func(n *Node, depth int) {
			fmt.Fprintf(&b, "%d %v %d %g\n", depth, n.T.S, n.Level, n.Score)
			for _, c := range n.Children {
				rec(c, depth+1)
			}
		}
		for _, r := range tr.Roots {
			rec(r, 0)
		}
		return b.String()
	}
	want := shape(Build(g, hot, Options{}))
	for i := 0; i < 20; i++ {
		if got := shape(Build(g, hot, Options{})); got != want {
			t.Fatalf("build %d differs from the first:\n%s\nfirst:\n%s", i+1, got, want)
		}
	}
}
