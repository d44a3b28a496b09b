package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
)

// checkSubproblems runs the in-place sub-problem path on the member list
// of g and compares every step with the reference: the partition with
// refGraphPartition, each segment's problem tables with refProblem of the
// extracted segment, the problem's peak pricing with PeakOnly on that
// segment, and each segment's schedule with DpSchedule of the extracted
// segment.
func checkSubproblems(t *testing.T, sc *Scheduler, name string, g *graph.Graph, members []graph.NodeID) {
	t.Helper()
	got := sc.segments(g, members)
	want := refGraphPartition(g, graph.NewSet(members...))
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, reference %d", name, len(got), len(want))
	}
	segs := make([][]graph.NodeID, len(got))
	for i, seg := range got {
		if w := want[i]; !slices.Equal(seg, w) {
			t.Fatalf("%s: segment %d is %v, reference %v", name, i, seg, w)
		}
		segs[i] = slices.Clone(seg)
	}
	ref := &Scheduler{MaxExact: sc.MaxExact, BeamLimit: sc.BeamLimit, BeamWidth: sc.BeamWidth}
	for i, seg := range segs {
		sub := g.Subgraph(graph.NewSet(seg...))
		if len(seg) > 1 {
			checkProblem(t, fmt.Sprintf("%s segment %d", name, i), sc.problemOn(g, seg), refProblem(sub))
			p := sc.problemOn(g, seg)
			for _, order := range [][]int32{sc.beam(p, 1), topoOrder(len(seg))} {
				s := make(Schedule, len(order))
				for k, v := range order {
					s[k] = p.ids[v]
				}
				if a, b := p.peakOf(order), PeakOnly(sub, s); a != b {
					t.Fatalf("%s segment %d: problem peak %d, PeakOnly %d", name, i, a, b)
				}
			}
		}
		g1, g2 := sc.schedule(nil, g, seg), ref.DpSchedule(sub)
		if !slices.Equal(g1, g2) {
			t.Fatalf("%s segment %d: schedule %v, reference %v", name, i, g1, g2)
		}
	}
}

// topoOrder is the problem's own index order, which is topological.
func topoOrder(n int) []int32 {
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}

// checkProblem compares a problem's tables with the reference's.
func checkProblem(t *testing.T, name string, got, want *problem) {
	t.Helper()
	eq := func(field string, ok bool) {
		if !ok {
			t.Fatalf("%s: problem %s differs from the reference", name, field)
		}
	}
	eq("ids", slices.Equal(got.ids, want.ids))
	eq("size", slices.Equal(got.size, want.size))
	eq("trans", slices.Equal(got.trans, want.trans))
	eq("hasCons", slices.Equal(got.hasCons, want.hasCons))
	eq("predMask", slices.Equal(got.predMask, want.predMask) || len(want.predMask) == 0 && len(got.predMask) == 0)
	eq("sucMask", slices.Equal(got.sucMask, want.sucMask) || len(want.sucMask) == 0 && len(got.sucMask) == 0)
	eq("preds", len(got.preds) == len(want.preds))
	for i := range want.preds {
		eq("preds", slices.Equal(got.preds[i], want.preds[i]))
		eq("sucs", slices.Equal(got.sucs[i], want.sucs[i]))
	}
}

// randomMembers picks a random subset of g's nodes, ascending: each node
// is kept with probability keep, so members have producers and consumers
// outside the set and the set falls into several components.
func randomMembers(r *rand.Rand, g *graph.Graph, keep float64) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range g.NodeIDs() {
		if r.Float64() < keep {
			out = append(out, v)
		}
	}
	return out
}

// TestSubproblemsMatchReference pins the in-place partition and
// sub-problem scheduling to the Set/Subgraph/ReachIndex path they
// replaced: random DAGs with duplicated inputs and random member subsets,
// every model builder's whole graph, and windows of each model's schedule
// like the intervals IncrementalR reschedules. One Scheduler serves every
// call, so its tables are reused across graphs of different ID ranges.
func TestSubproblemsMatchReference(t *testing.T) {
	sc := &Scheduler{MaxExact: 10}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randomDAG(r, 2+r.Intn(150))
		name := fmt.Sprintf("seed %d", seed)
		checkSubproblems(t, sc, name+" all", g, g.NodeIDs())
		for k := 0; k < 4; k++ {
			checkSubproblems(t, sc, fmt.Sprintf("%s subset %d", name, k), g, randomMembers(r, g, 0.2+0.7*r.Float64()))
		}
	}

	ws := append(models.Table2(0.05),
		models.MLP(64, 256, 512, 10, 4),
		models.RandomNASNet(1, 24, 32, 64, 16))
	if testing.Short() {
		ws = ws[len(ws)-2:]
	}
	sc = &Scheduler{}
	r := rand.New(rand.NewSource(1))
	for _, w := range ws {
		g := w.G
		checkSubproblems(t, sc, w.Name, g, g.NodeIDs())
		psi := sc.ScheduleGraph(g)
		for k := 0; k < 8; k++ {
			beg := r.Intn(len(psi))
			end := min(len(psi), beg+1+r.Intn(80))
			win := slices.Clone(psi[beg:end])
			slices.Sort(win)
			checkSubproblems(t, sc, fmt.Sprintf("%s window [%d,%d)", w.Name, beg, end), g, win)
		}
	}
}

// BenchmarkScheduleGraph_BERT times a from-scratch schedule of BERT-base:
// one partition of the whole graph and a DP or beam run per segment.
func BenchmarkScheduleGraph_BERT(b *testing.B) {
	g := models.BERTBase(32, 512).G
	sc := &Scheduler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.ScheduleGraph(g)
	}
}

// BenchmarkIncrementalR_BERT times Algorithm 2 on BERT-base after one
// rematerialization, cycling through 16 sites spread over the schedule.
// The reachability index of the old graph is built once, as the search
// caches it per parent state.
func BenchmarkIncrementalR_BERT(b *testing.B) {
	g := models.BERTBase(32, 512).G
	sc := &Scheduler{}
	psi := sc.ScheduleGraph(g)
	reach := graph.NewReachIndex(g)
	type mutation struct {
		g    *graph.Graph
		hint []graph.NodeID
	}
	var muts []mutation
	for k := 0; len(muts) < 16 && k < len(psi); k += len(psi) / 64 {
		if gNew, hint := dupConsumer(g, psi[k]); gNew != nil {
			muts = append(muts, mutation{gNew, hint})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := muts[i%len(muts)]
		sc.IncrementalR(g, m.g, m.hint, psi, reach)
	}
}

// TestSubproblemsIncrementalWithoutIndex checks IncrementalR without a
// cached reachability index, which takes its narrow-waist values from the
// in-place tables: every node's value must equal ReachIndex.NW, and the
// splice must match the one made with a fresh index, after remat
// mutations across random DAGs and the model builders' graphs.
func TestSubproblemsIncrementalWithoutIndex(t *testing.T) {
	graphs := []*graph.Graph{models.MLP(64, 256, 512, 10, 4).G, models.RandomNASNet(1, 24, 32, 64, 16).G}
	for seed := 0; seed < 60; seed++ {
		graphs = append(graphs, randomDAG(rand.New(rand.NewSource(int64(seed))), 2+seed*2))
	}
	sc, ref := &Scheduler{}, &Scheduler{}
	r := rand.New(rand.NewSource(5))
	for gi, g := range graphs {
		idx := graph.NewReachIndex(g)
		sc.reach(g, g.NodeIDs())
		for _, v := range g.NodeIDs() {
			i, _ := sc.loc.Get(v)
			if got := g.Len() - int(sc.part.nAnc[i]) - int(sc.part.nDes[i]) - 1; got != idx.NW(v) {
				t.Fatalf("graph %d node %d: nw %d, ReachIndex %d", gi, v, got, idx.NW(v))
			}
		}
		psi := sc.ScheduleGraph(g)
		for k := 0; k < 4; k++ {
			gNew, hint := dupConsumer(g, psi[r.Intn(len(psi))])
			if gNew == nil {
				continue
			}
			got, n := sc.IncrementalR(g, gNew, hint, psi, nil)
			want, m := ref.IncrementalR(g, gNew, hint, psi, idx)
			if !slices.Equal(got, want) || n != m || sc.Fallbacks != ref.Fallbacks {
				t.Fatalf("graph %d mutation %d: without an index %d rescheduled (%d fallbacks), with one %d (%d)",
					gi, k, n, sc.Fallbacks, m, ref.Fallbacks)
			}
		}
	}
}
