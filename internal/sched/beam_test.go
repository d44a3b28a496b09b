package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
)

// refCand and refCands are the reference beam's candidates and their
// order: peak, then net alive change, then node index, with sort.Sort
// deciding among candidates from different parents that tie on all three.
type refCand struct {
	from, v     int
	peak, delta int64
}

type refCands []refCand

func (c refCands) Len() int      { return len(c) }
func (c refCands) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c refCands) Less(i, j int) bool {
	if c[i].peak != c[j].peak {
		return c[i].peak < c[j].peak
	}
	if c[i].delta != c[j].delta {
		return c[i].delta < c[j].delta
	}
	return c[i].v < c[j].v
}

// refBeam is the beam scheduler without a ready frontier or bounded
// selection: every step scans all n nodes of every entry, sorts all the
// candidates with sort.Sort, and keeps the first w. It is the
// differential reference for Scheduler.beam, which must match it exactly,
// ties included.
func refBeam(g *graph.Graph, w int) Schedule {
	p := refProblem(g)
	n := len(p.ids)
	type entry struct {
		done              []bool
		rem, ready, order []int
		alive, peak       int64
	}
	start := &entry{done: make([]bool, n), rem: make([]int, n), ready: make([]int, n)}
	for v := 0; v < n; v++ {
		start.rem[v] = len(p.sucs[v])
		start.ready[v] = len(p.preds[v])
	}
	beam := []*entry{start}
	for step := 0; step < n; step++ {
		var cands []refCand
		for i, e := range beam {
			for v := 0; v < n; v++ {
				if e.done[v] || e.ready[v] != 0 {
					continue
				}
				peak := e.peak
				if m := e.alive + p.size[v] + p.trans[v]; m > peak {
					peak = m
				}
				var freed int64
				for _, u := range p.preds[v] {
					if p.hasCons[u] && e.rem[u] == 1 {
						freed += p.size[u]
					}
				}
				cands = append(cands, refCand{i, v, peak, p.size[v] - freed})
			}
		}
		sort.Sort(refCands(cands))
		if len(cands) > w {
			cands = cands[:w]
		}
		var next []*entry
		for _, c := range cands {
			e := beam[c.from]
			ne := &entry{
				done:  append([]bool(nil), e.done...),
				rem:   append([]int(nil), e.rem...),
				ready: append([]int(nil), e.ready...),
				order: append(append([]int(nil), e.order...), c.v),
				alive: e.alive + c.delta,
				peak:  c.peak,
			}
			ne.done[c.v] = true
			for _, u := range p.preds[c.v] {
				ne.rem[u]--
			}
			for _, s := range p.sucs[c.v] {
				ne.ready[s]--
			}
			next = append(next, ne)
		}
		beam = next
	}
	best := beam[0]
	for _, e := range beam[1:] {
		if e.peak < best.peak {
			best = e
		}
	}
	order := make(Schedule, n)
	for i, v := range best.order {
		order[i] = p.ids[v]
	}
	return order
}

// candSort is sort.Interface over beam candidates with beamCand.less.
type candSort []beamCand

func (c candSort) Len() int           { return len(c) }
func (c candSort) Swap(i, j int)      { c[i], c[j] = c[j], c[i] }
func (c candSort) Less(i, j int) bool { return c[i].less(&c[j]) }

// TestSelectTopMatchesSortSort checks selectTop against sort.Sort on
// random candidate lists with many ties, including lengths past the
// insertion-sort, ninther and heapsort thresholds and pre-sorted and
// reversed inputs.
func TestSelectTopMatchesSortSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(300)
		vals := 1 + r.Intn(6)
		in := make([]beamCand, n)
		for i := range in {
			in[i] = beamCand{from: int32(i), v: int32(r.Intn(vals)), peak: int64(r.Intn(vals)), delta: int64(r.Intn(2))}
		}
		switch trial % 4 {
		case 1:
			sort.Sort(candSort(in))
		case 2:
			sort.Sort(sort.Reverse(candSort(in)))
		}
		want := append([]beamCand(nil), in...)
		sort.Sort(candSort(want))
		for _, k := range []int{1, 2, 8, 1 + r.Intn(n+1)} {
			got := append([]beamCand(nil), in...)
			selectTop(got, k)
			for i := 0; i < min(k, n); i++ {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d: position %d is %+v, sort.Sort has %+v",
						trial, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

var beamWidths = []int{1, 2, 8}

// checkBeam compares sc.beam on the sub-problem seg of g, built in place,
// with refBeam on the segment extracted as a standalone graph, at every
// width in beamWidths.
func checkBeam(t *testing.T, sc *Scheduler, name string, g *graph.Graph, seg []graph.NodeID) {
	t.Helper()
	sub := g.Subgraph(graph.NewSet(seg...))
	for _, w := range beamWidths {
		want := refBeam(sub, w)
		p := sc.problemOn(g, seg)
		var got Schedule
		for _, v := range sc.beam(p, w) {
			got = append(got, p.ids[v])
		}
		if len(got) != len(want) {
			t.Fatalf("%s w=%d: %d ops, reference %d", name, w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s w=%d: schedules differ at position %d: %v, reference %v",
					name, w, i, got[i], want[i])
			}
		}
	}
}

// TestBeamMatchesFullSortReference pins the ready-frontier beam with
// bounded top-w selection to the full-scan, full-sort reference on seeded
// random DAGs, whose few distinct tensor sizes make ties common. One
// Scheduler serves every call, so slot buffers are reused across graph
// sizes and widths.
func TestBeamMatchesFullSortReference(t *testing.T) {
	sc := &Scheduler{}
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(120))
		checkBeam(t, sc, fmt.Sprintf("seed %d", seed), g, g.NodeIDs())
	}
}

// TestBeamMatchesReferenceOnModels covers the partition segments of every
// model builder's evaluation graph, at the sizes the search sees.
func TestBeamMatchesReferenceOnModels(t *testing.T) {
	ws := append(models.Table2(0.05),
		models.MLP(64, 256, 512, 10, 4),
		models.RandomNASNet(1, 24, 32, 64, 16))
	sc := &Scheduler{}
	for _, w := range ws {
		g := w.G
		for _, seg := range sc.segments(g, g.NodeIDs()) {
			checkBeam(t, sc, w.Name, g, seg)
		}
	}
}

// benchmarkBeam times a full ScheduleGraph of g with the default beam
// width (8 on medium partitions, 1 beyond BeamLimit) and with width 1
// everywhere.
func benchmarkBeam(b *testing.B, g *graph.Graph) {
	for _, c := range []struct {
		name string
		sc   *Scheduler
	}{
		{"w=8", &Scheduler{}},
		{"w=1", &Scheduler{BeamWidth: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.sc.ScheduleGraph(g)
			}
		})
	}
}

func BenchmarkBeam_BERT(b *testing.B) {
	benchmarkBeam(b, models.BERTBase(32, 512).G)
}

func BenchmarkBeam_NASNet(b *testing.B) {
	benchmarkBeam(b, models.RandomNASNet(1, 24, 32, 64, 16).G)
}
