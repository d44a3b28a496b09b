package sched

import (
	"math/rand"
	"testing"

	"magis/internal/graph"
)

// Edge cases of the incremental reschedule splice (Algorithm 2): mutation
// sites at the extreme schedule positions, where the interval logic has no
// slack on one side, plus a randomized property sweep. These complement
// the mid-schedule cases in sched_test.go.

// dupConsumer rematerializes v into a clone of g and rewires its first
// consumer, returning the new graph and the old-graph mutation hint.
func dupConsumer(g *graph.Graph, v graph.NodeID) (*graph.Graph, []graph.NodeID) {
	gNew := g.Clone()
	n := gNew.Node(v)
	suc := gNew.Suc(v)
	if len(suc) == 0 {
		return nil, nil
	}
	dup := gNew.Add(n.Op, n.Ins...)
	gNew.ReplaceInput(suc[0], v, dup)
	return gNew, []graph.NodeID{v, suc[0]}
}

// chainN builds a linear chain of n compute nodes after one input leaf.
func chainN(n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	prev := g.Add(leaf(4))
	ids := []graph.NodeID{prev}
	for i := 0; i < n; i++ {
		prev = g.Add(sized("C", 4), prev)
		ids = append(ids, prev)
	}
	return g, ids
}

// TestIncrementalMutationAtScheduleStart mutates the node at schedule
// position 0: the interval around the site has no predecessor context and
// must clamp at the front rather than index off the schedule.
func TestIncrementalMutationAtScheduleStart(t *testing.T) {
	g, _ := chainN(60)
	sc := &Scheduler{}
	psi := sc.ScheduleGraph(g)
	first := psi[0]
	gNew, hint := dupConsumer(g, first)
	if gNew == nil {
		t.Fatalf("schedule head %d has no consumer to rewire", first)
	}
	out, n := sc.IncrementalR(g, gNew, hint, psi, nil)
	if err := out.Validate(gNew); err != nil {
		t.Fatalf("invalid schedule after head mutation: %v", err)
	}
	if n == 0 {
		t.Fatal("head mutation rescheduled nothing")
	}
	if n >= gNew.Len() {
		t.Errorf("head mutation degenerated to a full reschedule (%d of %d)", n, gNew.Len())
	}
	if sc.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d after a successful splice, want 0", sc.Fallbacks)
	}
}

// TestIncrementalMutationAtScheduleEnd mutates the node at the last
// schedule position: the interval must clamp at the back, and the
// rematerialized tail node lands after everything it depends on.
func TestIncrementalMutationAtScheduleEnd(t *testing.T) {
	// A chain whose last scheduled node still has a consumer to rewire:
	// fork the tail so the penultimate node feeds two sinks.
	g, ids := chainN(60)
	tail := ids[len(ids)-1]
	g.Add(sized("Sink", 4), tail)
	g.Add(sized("Sink", 4), tail)
	sc := &Scheduler{}
	psi := sc.ScheduleGraph(g)
	last := psi[len(psi)-1]
	target := last
	if len(g.Suc(last)) == 0 {
		target = g.Node(last).Ins[0] // last is a sink: mutate its producer instead
	}
	gNew, hint := dupConsumer(g, target)
	if gNew == nil {
		t.Fatalf("tail target %d has no consumer to rewire", target)
	}
	out, n := sc.IncrementalR(g, gNew, hint, psi, nil)
	if err := out.Validate(gNew); err != nil {
		t.Fatalf("invalid schedule after tail mutation: %v", err)
	}
	if n == 0 {
		t.Fatal("tail mutation rescheduled nothing")
	}
}

// TestIncrementalREmptyMutation pins the documented contract for an empty
// hint on the R variant directly: no sites means a full reschedule, with
// or without a caller-provided reach index.
func TestIncrementalREmptyMutation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomDAG(r, 40)
	sc := &Scheduler{}
	psi := sc.ScheduleGraph(g)
	for _, reach := range []*graph.ReachIndex{nil, graph.NewReachIndex(g)} {
		out, n := sc.IncrementalR(g, g, nil, psi, reach)
		if err := out.Validate(g); err != nil {
			t.Fatal(err)
		}
		if n != g.Len() {
			t.Errorf("empty hint should fully reschedule, got %d of %d", n, g.Len())
		}
	}
}

// TestIncrementalRPropertyValidWithinWindow is the randomized property:
// for arbitrary DAGs and remat-style mutations, IncrementalR always
// returns a valid schedule whose peak is within a constant window of a
// full ScheduleGraph reschedule (the paper's locality claim: splicing
// trades bounded peak slack for not rescheduling the whole program).
func TestIncrementalRPropertyValidWithinWindow(t *testing.T) {
	const window = 2.0
	trials := 120
	if testing.Short() {
		trials = 30
	}
	sc := &Scheduler{}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(3000 + trial)))
		g := randomDAG(r, 20+r.Intn(80))
		psi := sc.ScheduleGraph(g)
		if err := psi.Validate(g); err != nil {
			t.Fatalf("trial %d: base schedule invalid: %v", trial, err)
		}
		// Random remat site; positions are drawn across the whole schedule
		// so the sweep also hits the boundary cases above.
		var gNew *graph.Graph
		var hint []graph.NodeID
		for _, i := range r.Perm(len(psi)) {
			if gNew, hint = dupConsumer(g, psi[i]); gNew != nil {
				break
			}
		}
		if gNew == nil {
			continue
		}
		reach := graph.NewReachIndex(g)
		out, n := sc.IncrementalR(g, gNew, hint, psi, reach)
		if err := out.Validate(gNew); err != nil {
			t.Fatalf("trial %d: invalid incremental schedule: %v", trial, err)
		}
		if n == 0 {
			t.Fatalf("trial %d: rescheduled nothing for a real mutation", trial)
		}
		incPeak := PeakOnly(gNew, out)
		fullPeak := PeakOnly(gNew, sc.ScheduleGraph(gNew))
		if float64(incPeak) > window*float64(fullPeak) {
			t.Fatalf("trial %d: incremental peak %d exceeds %.1fx full peak %d",
				trial, incPeak, window, fullPeak)
		}
	}
}
