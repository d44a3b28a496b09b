package opt

import (
	"slices"
	"testing"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/sim"
	"magis/internal/tensor"
)

func model() *cost.Model { return cost.NewModel(cost.RTX3090()) }

// fatMLP is a small training graph whose activations dominate its weights
// (large batch, modest hidden width) — the memory profile of the paper's
// workloads, with room for fission and scheduling to cut the peak.
func fatMLP() *graph.Graph {
	return models.MLP(8192, 256, 512, 10, 4).G
}

func TestBaselineMatchesTopo(t *testing.T) {
	g := fatMLP()
	b := Baseline(g, model())
	if b.PeakMem != sched.PeakOnly(g, g.Topo()) {
		t.Error("baseline peak should use plain topo order")
	}
	if b.Latency <= 0 {
		t.Error("baseline latency must be positive")
	}
}

// TestEvaluateDefersHotspots: evaluation prices a candidate by its peak and
// latency only, leaving the hot-spot set to the expansion that reads it,
// and both agree with the full simulations.
func TestEvaluateDefersHotspots(t *testing.T) {
	res := &Result{}
	ev := newEvaluator(model(), &res.Stats)
	check := func(s *State) {
		t.Helper()
		if s.Hot != nil {
			t.Fatalf("evaluated state holds a hot set of %d nodes", len(s.Hot))
		}
		prof := sched.Simulate(s.EvalG, s.Sched)
		if s.PeakMem != prof.Peak {
			t.Errorf("PeakMem %d, Simulate peak %d", s.PeakMem, prof.Peak)
		}
		r := sim.Run(s.EvalG, s.Sched, sim.Config{Model: ev.model})
		if s.Latency != r.Latency {
			t.Errorf("Latency %v, Run latency %v", s.Latency, r.Latency)
		}
		ev.hot(s)
		if !slices.Equal(s.Hot, prof.Hotspots) {
			t.Errorf("hot set %v, Simulate hotspots %v", s.Hot, prof.Hotspots)
		}
	}
	parent := &State{G: fatMLP()}
	if err := ev.evaluate(parent, nil, nil); err != nil {
		t.Fatal(err)
	}
	check(parent)
	parent.FT = ftree.Build(parent.G, parent.Hot, ftree.Options{})
	o := Options{}
	o.defaults()
	cands := neighbors(parent, &o, res, newQuarantine(o.QuarantineAfter))
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	for _, c := range cands {
		if err := ev.evaluate(c.state, parent, c.oldMutated); err != nil {
			t.Fatal(err)
		}
		check(c.state)
	}
}

func TestOptimizeMemoryUnderLatency(t *testing.T) {
	g := fatMLP()
	m := model()
	bl := Baseline(g, m)
	res, err := Optimize(g, m, Options{
		Mode:            MemoryUnderLatency,
		LatencyLimit:    bl.Latency * 1.10,
		TimeBudget:      1500 * time.Millisecond,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.PeakMem >= bl.PeakMem {
		t.Errorf("no memory reduction: %d -> %d", bl.PeakMem, res.Best.PeakMem)
	}
	ratio := float64(res.Best.PeakMem) / float64(bl.PeakMem)
	t.Logf("memory ratio %.2f, latency overhead %.2f%%",
		ratio, 100*(res.Best.Latency/bl.Latency-1))
	if ratio > 0.9 {
		t.Errorf("memory ratio %.2f too weak for this fission-friendly graph", ratio)
	}
	if err := res.Best.Sched.Validate(res.Best.EvalG); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeLatencyUnderMemory(t *testing.T) {
	g := fatMLP()
	m := model()
	bl := Baseline(g, m)
	limit := int64(float64(bl.PeakMem) * 0.6)
	res, err := Optimize(g, m, Options{
		Mode:            LatencyUnderMemory,
		MemLimit:        limit,
		TimeBudget:      1500 * time.Millisecond,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.PeakMem > limit {
		t.Errorf("memory constraint violated: %d > %d", res.Best.PeakMem, limit)
	}
	t.Logf("latency overhead %.2f%% at 60%% memory",
		100*(res.Best.Latency/bl.Latency-1))
}

func TestStatsPopulated(t *testing.T) {
	g := fatMLP()
	res, err := Optimize(g, model(), Options{
		Mode:            MemoryUnderLatency,
		TimeBudget:      500 * time.Millisecond,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Iterations == 0 || s.Trans == 0 || s.Sched == 0 || s.Simul == 0 || s.Hash == 0 {
		t.Errorf("stats incomplete: %+v", s)
	}
	if len(res.History) == 0 {
		t.Error("no history recorded")
	}
}

func TestBetterThanModes(t *testing.T) {
	a := &State{PeakMem: 100, Latency: 2}
	b := &State{PeakMem: 200, Latency: 1}
	lat := Options{Mode: LatencyUnderMemory, MemLimit: 300}
	lat.defaults()
	// Both under the limit: compare latency.
	if lat.better(a, b, 1) {
		t.Error("a (slower) should not beat b under a loose memory limit")
	}
	tight := Options{Mode: LatencyUnderMemory, MemLimit: 150}
	tight.defaults()
	// b violates the limit: a wins on clamped memory.
	if !tight.better(a, b, 1) {
		t.Error("a (within limit) should beat b (violating)")
	}
	mem := Options{Mode: MemoryUnderLatency, LatencyLimit: 3}
	mem.defaults()
	if !mem.better(a, b, 1) {
		t.Error("a (smaller) should beat b under a loose latency limit")
	}
}

func TestCollapseRegionAccounting(t *testing.T) {
	g := fatMLP()
	m := model()
	prof := sched.Simulate(g, g.Topo())
	tr := ftree.Build(g, prof.Hotspots, ftree.Options{})
	if tr.Size() == 0 {
		t.Fatal("no candidates")
	}
	// Enable the biggest candidate (an Enable mutation exists for any free
	// candidate).
	var target *ftree.Node
	var chosen ftree.Mutation
	for _, mu := range tr.Mutations(g) {
		n := tr.NodeAt(mu.Path)
		if mu.Kind == ftree.Enable && (target == nil || len(n.T.S) > len(target.T.S)) {
			target = n
			chosen = mu
		}
	}
	if target == nil {
		t.Fatal("no enable mutation")
	}
	if err := tr.Apply(chosen); err != nil {
		t.Fatal(err)
	}
	c := collapser{model: m, sc: &sched.Scheduler{}}
	eg, regions, err := c.Collapse(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	if want := g.Len() - len(target.T.S) + 1; eg.Len() != want {
		t.Errorf("collapsed graph has %d nodes, want %d", eg.Len(), want)
	}
	rid := regions[regionKey(target.T.S)]
	rop := eg.Node(rid).Op.(*RegionOp)
	if rop.Latency() <= 0 {
		t.Error("region latency must be positive")
	}
	if rop.OutDeviceBytes() <= 0 {
		t.Error("region output bytes must be positive")
	}
	// Splitting costs latency: region latency exceeds the unsplit members'.
	var orig float64
	for _, v := range target.T.S {
		orig += m.NodeLatency(g.Node(v))
	}
	if rop.Latency() <= orig {
		t.Errorf("region latency %g should exceed unsplit latency %g", rop.Latency(), orig)
	}
	// The collapsed graph must still schedule.
	if err := sched.Schedule(eg.Topo()).Validate(eg); err != nil {
		t.Fatal(err)
	}
}

func TestParetoFilter(t *testing.T) {
	pts := []ParetoPoint{
		{1.0, 0}, {0.8, 0.05}, {0.9, 0.5}, {0.6, 0.2}, {0.6, 0.4}, {0.4, 0.1},
	}
	front := Pareto(pts)
	for i := 1; i < len(front); i++ {
		if front[i].MemRatio <= front[i-1].MemRatio {
			t.Error("front not sorted by memory")
		}
		if front[i].LatOverhead >= front[i-1].LatOverhead {
			t.Error("dominated point on front")
		}
	}
	// (0.9, 0.5) and (0.6, 0.4) are dominated.
	for _, p := range front {
		if p == (ParetoPoint{0.9, 0.5}) || p == (ParetoPoint{0.6, 0.4}) {
			t.Errorf("dominated point %v kept", p)
		}
	}
}

func TestRegionOpInterfaceCompliance(t *testing.T) {
	var op graph.Op = &RegionOp{}
	if op.Kind() != "FissionRegion" {
		t.Error("kind wrong")
	}
	var _ sched.DeviceSizer = &RegionOp{}
	if !op.OutShape().Equal(tensor.S()) {
		t.Error("region out shape should be opaque scalar")
	}
	_ = ops.KindStore // keep ops import for the compile-time assertions
}
