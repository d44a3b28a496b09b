package graph_test

import (
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/sched"
)

// fuzzWorkloads returns the small training graphs the fuzzer mutates. A
// fresh copy is built per invocation because mutations destroy the graph.
func fuzzWorkloads() []*graph.Graph {
	return []*graph.Graph{
		models.MLP(64, 16, 32, 4, 2).G,
		models.ResNet50Config(1, 32, []int{1, 1}).G,
	}
}

// FuzzValidate drives byte-programs of graph and schedule mutations against
// graph.Validate and sched.Schedule.Validate. The properties under test:
// neither validator ever panics, an unmutated workload graph passes both,
// and any schedule corruption (drop, duplicate, swap) is flagged.
//
// Each byte pair is one instruction: opcode (mod 6) + operand. Graph
// mutations go through the public API only, which preserves structural
// invariants — so graph.Validate must keep passing; schedule mutations
// break the order, so Schedule.Validate must start failing.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 7})          // schedule swaps
	f.Add([]byte{2, 0, 3, 9, 4, 5})    // drop + duplicate + graph remove
	f.Add([]byte{1, 250, 5, 13, 0, 1}) // truncate + redirect + swap
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		for wi, g := range fuzzWorkloads() {
			g = g.Clone()
			order := sched.Schedule(g.Topo())
			schedMutated := false
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i]%6, int(data[i+1])
				switch op {
				case 0: // swap two schedule slots
					if n := len(order); n >= 2 {
						a, b := arg%n, (arg*7+3)%n
						if a != b {
							order[a], order[b] = order[b], order[a]
							schedMutated = true
						}
					}
				case 1: // truncate the schedule
					if n := len(order); n > 0 {
						order = order[:arg%n]
						schedMutated = true
					}
				case 2: // duplicate one schedule entry
					if n := len(order); n > 0 {
						order = append(order, order[arg%n])
						schedMutated = true
					}
				case 3: // duplicate a node (remat-style, API-level)
					ids := g.NodeIDs()
					if len(ids) == 0 {
						continue
					}
					src := g.Node(ids[arg%len(ids)])
					g.AddNamed(src.Name+"'", src.Op, src.Ins...)
					order = sched.Schedule(g.Topo())
					schedMutated = false
				case 4: // remove a sink node, if any
					outs := g.Outputs()
					if len(outs) > 0 {
						if err := g.Remove(outs[arg%len(outs)]); err != nil {
							t.Fatalf("removing sink: %v", err)
						}
						order = sched.Schedule(g.Topo())
						schedMutated = false
					}
				case 5: // redirect one node's consumers to a same-shape peer
					ids := g.NodeIDs()
					if len(ids) == 0 {
						continue
					}
					old := ids[arg%len(ids)]
					for _, cand := range ids {
						if cand != old &&
							g.Node(cand).Op.OutShape().Equal(g.Node(old).Op.OutShape()) &&
							g.Node(cand).Op.Kind() == g.Node(old).Op.Kind() &&
							!g.Anc(cand).Has(old) && cand != old {
							g.RedirectConsumers(old, cand)
							order = sched.Schedule(g.Topo())
							schedMutated = false
							break
						}
					}
				}
			}
			// Public-API mutations preserve graph invariants.
			if err := graph.Validate(g); err != nil {
				t.Fatalf("workload %d: Validate after API mutations: %v", wi, err)
			}
			// Schedule.Validate must flag corrupted orders and accept fresh
			// ones — and, above all, never panic on either.
			err := order.Validate(g)
			if schedMutated && err == nil && len(order) > 0 {
				// A swap can cancel out (swapped back); only structural
				// corruptions are guaranteed to be caught.
				if len(order) != g.Len() {
					t.Fatalf("workload %d: corrupted schedule accepted", wi)
				}
			}
			if !schedMutated && err != nil {
				t.Fatalf("workload %d: fresh topo order rejected: %v", wi, err)
			}
		}
	})
}
