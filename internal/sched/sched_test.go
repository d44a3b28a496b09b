package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// sized returns an op whose output occupies 4*n bytes.
func sized(kind string, n int) graph.Op {
	return ops.NewEltwise(kind, tensor.S(n), tensor.F32, 1)
}

func leaf(n int) graph.Op { return ops.NewInput(tensor.S(n), tensor.F32) }

func TestSimulateChain(t *testing.T) {
	// in(10) -> a(20) -> b(5): peak while executing b = 20+5 (in freed
	// after a executes... in is consumed by a only, freed after a).
	g := graph.New()
	in := g.Add(leaf(10))
	a := g.Add(sized("A", 20), in)
	b := g.Add(sized("B", 5), a)
	prof := Simulate(g, Schedule{in, a, b})
	if got := prof.PerStep[1]; got != 4*(10+20) {
		t.Errorf("step a mem = %d, want %d", got, 4*30)
	}
	if got := prof.PerStep[2]; got != 4*(20+5) {
		t.Errorf("step b mem = %d, want %d", got, 4*25)
	}
	if prof.Peak != 4*30 {
		t.Errorf("peak = %d", prof.Peak)
	}
}

func TestSimulateSkipConnection(t *testing.T) {
	// in feeds both a and the final add: it stays alive across the chain.
	g := graph.New()
	in := g.Add(leaf(10))
	a := g.Add(sized("A", 10), in)
	b := g.Add(sized("B", 10), a)
	add := g.Add(ops.NewAdd(tensor.S(10), tensor.S(10), tensor.F32), b, in)
	prof := Simulate(g, Schedule{in, a, b, add})
	// During add: in, b alive plus add's own output (a freed after b).
	if got := prof.PerStep[3]; got != 4*30 {
		t.Errorf("add step mem = %d, want %d", got, 4*30)
	}
	if !prof.Hotspots.Has(in) {
		t.Error("skip input should be a hot-spot")
	}
}

func TestSimulateStoreZeroBytes(t *testing.T) {
	g := graph.New()
	in := g.Add(leaf(100))
	st := g.Add(ops.NewStore(tensor.S(100), tensor.F32), in)
	prof := Simulate(g, Schedule{in, st})
	// Store's output is host-resident: only the input's 400 bytes count.
	if prof.Peak != 400 {
		t.Errorf("peak = %d, want 400", prof.Peak)
	}
}

func TestValidate(t *testing.T) {
	g := graph.New()
	in := g.Add(leaf(1))
	a := g.Add(sized("A", 1), in)
	if err := (Schedule{in, a}).Validate(g); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := (Schedule{a, in}).Validate(g); err == nil {
		t.Error("dependency violation accepted")
	}
	if err := (Schedule{in}).Validate(g); err == nil {
		t.Error("short schedule accepted")
	}
	if err := (Schedule{in, in}).Validate(g); err == nil {
		t.Error("duplicate accepted")
	}
}

// refValidate is Validate as it was with a map of positions and sorted
// distinct producer lists: the reference for the error each bad schedule
// must get.
func refValidate(s Schedule, g *graph.Graph) error {
	if len(s) != g.Len() {
		return fmt.Errorf("sched: schedule has %d nodes, graph has %d", len(s), g.Len())
	}
	pos := make(map[graph.NodeID]int, len(s))
	for i, v := range s {
		if _, dup := pos[v]; dup {
			return fmt.Errorf("sched: node %d appears twice", v)
		}
		if !g.Has(v) {
			return fmt.Errorf("sched: node %d not in graph", v)
		}
		pos[v] = i
	}
	for _, v := range s {
		for _, p := range g.Pre(v) {
			if pos[p] > pos[v] {
				return fmt.Errorf("sched: node %d scheduled before producer %d", v, p)
			}
		}
	}
	return nil
}

// TestValidateMatchesReference compares Validate's verdict and message
// with refValidate on valid schedules of random DAGs with duplicated
// inputs and on copies with swapped, repeated, dropped and foreign entries.
func TestValidateMatchesReference(t *testing.T) {
	sc := &Scheduler{}
	for seed := 0; seed < 300; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randomDAG(r, 2+r.Intn(60))
		s := sc.ScheduleGraph(g)
		switch seed % 5 {
		case 1:
			i, j := r.Intn(len(s)), r.Intn(len(s))
			s[i], s[j] = s[j], s[i]
		case 2:
			s[r.Intn(len(s))] = s[r.Intn(len(s))]
		case 3:
			s = s[:len(s)-1]
		case 4:
			s[r.Intn(len(s))] = g.NextID() + graph.NodeID(r.Intn(3))
		}
		if got, want := fmt.Sprint(s.Validate(g)), fmt.Sprint(refValidate(s, g)); got != want {
			t.Fatalf("seed %d: Validate says %s, reference %s", seed, got, want)
		}
	}
}

// bruteMinPeak enumerates every topological order (small graphs only).
func bruteMinPeak(g *graph.Graph) int64 {
	ids := g.NodeIDs()
	n := len(ids)
	best := int64(1) << 62
	var rec func(order Schedule, used map[graph.NodeID]bool)
	rec = func(order Schedule, used map[graph.NodeID]bool) {
		if len(order) == n {
			if p := PeakOnly(g, order); p < best {
				best = p
			}
			return
		}
		for _, v := range ids {
			if used[v] {
				continue
			}
			ok := true
			for _, p := range g.Pre(v) {
				if !used[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[v] = true
			rec(append(order, v), used)
			delete(used, v)
		}
	}
	rec(Schedule{}, map[graph.NodeID]bool{})
	return best
}

// randomDAG builds a random layered DAG with random tensor sizes.
func randomDAG(r *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(50)
		if len(ids) == 0 || r.Intn(4) == 0 {
			ids = append(ids, g.Add(leaf(size)))
			continue
		}
		k := 1 + r.Intn(2)
		var ins []graph.NodeID
		for j := 0; j < k; j++ {
			ins = append(ins, ids[r.Intn(len(ids))])
		}
		ids = append(ids, g.Add(sized("Op", size), ins...))
	}
	return g
}

func TestExactDPOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sc := &Scheduler{MaxExact: 10}
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(r, 4+r.Intn(5))
		got := sc.DpSchedule(g)
		if err := got.Validate(g); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		want := bruteMinPeak(g)
		if p := PeakOnly(g, got); p != want {
			t.Errorf("trial %d: DP peak %d != optimal %d", trial, p, want)
		}
	}
}

func TestDPBeatsNaiveOrder(t *testing.T) {
	// Two branches off one input: a heavy branch and a light branch that
	// must be interleaved carefully. DP should not exceed the default
	// topo-order peak.
	g := graph.New()
	in := g.Add(leaf(10))
	var outs []graph.NodeID
	for i := 0; i < 4; i++ {
		h := g.Add(sized("H", 100), in)
		s := g.Add(sized("S", 1), h)
		outs = append(outs, s)
	}
	var acc graph.NodeID = outs[0]
	for _, o := range outs[1:] {
		acc = g.Add(ops.NewAdd(tensor.S(1), tensor.S(1), tensor.F32), acc, o)
	}
	sc := &Scheduler{}
	dp := sc.DpSchedule(g)
	if err := dp.Validate(g); err != nil {
		t.Fatal(err)
	}
	if pd, pt := PeakOnly(g, dp), PeakOnly(g, g.Topo()); pd > pt {
		t.Errorf("DP peak %d worse than topo %d", pd, pt)
	}
}

func TestBeamValidOnLargerGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sc := &Scheduler{MaxExact: 8, BeamLimit: 100, BeamWidth: 8}
	for trial := 0; trial < 5; trial++ {
		g := randomDAG(r, 60)
		got := sc.DpSchedule(g)
		if err := got.Validate(g); err != nil {
			t.Fatalf("beam produced invalid schedule: %v", err)
		}
	}
}

func TestGraphPartitionChain(t *testing.T) {
	// A pure chain: every node has nw = 0, so partitioning produces many
	// small segments whose concatenation is the chain itself.
	g := graph.New()
	prev := g.Add(leaf(1))
	all := []graph.NodeID{prev}
	for i := 0; i < 10; i++ {
		prev = g.Add(sized("C", 1), prev)
		all = append(all, prev)
	}
	sc := &Scheduler{}
	segs := sc.segments(g, all)
	if len(segs) < 2 {
		t.Fatalf("chain should partition, got %d segments", len(segs))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total != len(all) {
		t.Errorf("segments cover %d of %d nodes", total, len(all))
	}
	if err := sc.ScheduleGraph(g).Validate(g); err != nil {
		t.Error(err)
	}
}

func TestScheduleGraphValidRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sc := &Scheduler{}
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(r, 80)
		s := sc.ScheduleGraph(g)
		if err := s.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIncrementalAfterMutation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sc := &Scheduler{}
	g := randomDAG(r, 60)
	psi := sc.ScheduleGraph(g)
	if err := psi.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Mutate: pick a non-leaf node with a consumer and re-materialize it.
	var target graph.NodeID = graph.Invalid
	for _, v := range g.NodeIDs() {
		if len(g.Pre(v)) > 0 && g.NumConsumers(v) >= 2 {
			target = v
			break
		}
	}
	if target == graph.Invalid {
		t.Skip("no rematerializable node in random graph")
	}
	gNew := g.Clone()
	n := gNew.Node(target)
	dup := gNew.Add(n.Op, n.Ins...)
	consumer := gNew.Suc(target)[0]
	gNew.ReplaceInput(consumer, target, dup)

	psiNew, rescheduled := sc.Incremental(g, gNew, []graph.NodeID{target, consumer}, psi)
	if err := psiNew.Validate(gNew); err != nil {
		t.Fatalf("incremental schedule invalid: %v", err)
	}
	if rescheduled >= gNew.Len() {
		t.Errorf("incremental rescheduled everything (%d of %d)", rescheduled, gNew.Len())
	}
}

func TestIncrementalFallbackOnEmptyMutation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sc := &Scheduler{}
	g := randomDAG(r, 20)
	psi := sc.ScheduleGraph(g)
	out, n := sc.Incremental(g, g, nil, psi)
	if err := out.Validate(g); err != nil {
		t.Fatal(err)
	}
	if n != g.Len() {
		t.Errorf("empty mutation should fully reschedule, got %d", n)
	}
	if sc.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d after one full-reschedule fallback, want 1", sc.Fallbacks)
	}
}

func TestPeakOnlyMatchesSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, 30)
		s := g.Topo()
		if PeakOnly(g, s) != Simulate(g, s).Peak {
			t.Fatalf("trial %d: PeakOnly disagrees with Simulate", trial)
		}
	}
}

func TestIncrementalMultiIntervalClusters(t *testing.T) {
	// Two mutation sites far apart in a long chain must be rescheduled as
	// separate local intervals, not one giant span.
	g := graph.New()
	prev := g.Add(leaf(4))
	var chain []graph.NodeID
	for i := 0; i < 200; i++ {
		prev = g.Add(sized("C", 4), prev)
		chain = append(chain, prev)
	}
	sc := &Scheduler{}
	psi := sc.ScheduleGraph(g)
	// Mutate near both ends: duplicate two distant nodes' consumers.
	gNew := g.Clone()
	early, late := chain[10], chain[180]
	dupE := gNew.Add(gNew.Node(early).Op, gNew.Node(early).Ins...)
	gNew.ReplaceInput(chain[11], early, dupE)
	dupL := gNew.Add(gNew.Node(late).Op, gNew.Node(late).Ins...)
	gNew.ReplaceInput(chain[181], late, dupL)

	out, n := sc.Incremental(g, gNew, []graph.NodeID{early, chain[11], late, chain[181]}, psi)
	if err := out.Validate(gNew); err != nil {
		t.Fatal(err)
	}
	if n > gNew.Len()/2 {
		t.Errorf("rescheduled %d of %d ops: clusters not localized", n, gNew.Len())
	}
}

func TestSelfCostedPayloadSkipsDP(t *testing.T) {
	// DeviceSizer payloads flow through memory simulation.
	g := graph.New()
	in := g.Add(leaf(10))
	r := g.Add(regionStub{out: 400, trans: 800}, in)
	prof := Simulate(g, Schedule{in, r})
	if prof.PerStep[1] != 40+400+800 {
		t.Errorf("region accounting wrong: %d", prof.PerStep[1])
	}
	if prof.Peak != 1240 {
		t.Errorf("peak = %d", prof.Peak)
	}
}

// regionStub is a minimal DeviceSizer payload for accounting tests.
type regionStub struct {
	out, trans int64
}

func (r regionStub) Kind() string              { return "stub" }
func (r regionStub) OutShape() tensor.Shape    { return tensor.S() }
func (r regionStub) DType() tensor.DType       { return tensor.F32 }
func (r regionStub) AttrKey() string           { return "" }
func (r regionStub) OutDeviceBytes() int64     { return r.out }
func (r regionStub) ExecTransientBytes() int64 { return r.trans }
