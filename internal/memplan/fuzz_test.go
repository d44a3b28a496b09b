package memplan

import (
	"math/rand"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// checkPlan asserts the planner invariants the differential audit relies
// on: lifetime-overlapping blocks never share addresses, the arena always
// covers the idealized lifetime peak, and every block lies inside the
// arena span.
func checkPlan(t *testing.T, g *graph.Graph, order sched.Schedule) {
	t.Helper()
	p, err := Build(g, order)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.ArenaSize < p.LifetimePeak {
		t.Fatalf("arena %d below lifetime peak %d", p.ArenaSize, p.LifetimePeak)
	}
	for _, b := range p.Blocks {
		if b.Offset < 0 || b.Offset+b.Size > p.ArenaSize {
			t.Fatalf("block %d [%d,%d) outside arena %d", b.Node, b.Offset, b.Offset+b.Size, p.ArenaSize)
		}
		if b.Start > b.End {
			t.Fatalf("block %d has inverted lifetime [%d,%d]", b.Node, b.Start, b.End)
		}
	}
}

// FuzzBuild drives byte-programs of DAG construction against the planner,
// in the style of graph's FuzzValidate. Each byte pair is one instruction:
// opcode (mod 4) + operand. The properties under test: Build never panics
// or errors on a valid topological order, no two blocks with intersecting
// lifetimes overlap in address space (Plan.Verify), and the arena never
// undercuts the lifetime peak.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 1, 0, 1, 1})      // chain of eltwise ops
	f.Add([]byte{0, 5, 0, 5, 2, 0, 2, 1}) // diamond of adds
	f.Add([]byte{0, 9, 3, 0, 1, 2, 3, 1}) // swap (Store/Load) pairs
	f.Add([]byte{0, 200, 0, 3, 1, 1, 2, 2, 3, 0, 1, 4, 2, 5, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		g := graph.New()
		var ids []graph.NodeID
		shape := func(v graph.NodeID) tensor.Shape { return g.Node(v).Op.OutShape() }
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, int(data[i+1])
			switch {
			case op == 0 || len(ids) == 0:
				ids = append(ids, g.Add(ops.NewInput(tensor.S(1+arg), tensor.F32)))
			case op == 1: // unary eltwise on an existing node
				in := ids[arg%len(ids)]
				ids = append(ids, g.Add(ops.NewEltwise("Op", shape(in), tensor.F32, 1), in))
			case op == 2: // binary add of two same-shape nodes, if any pair exists
				a := ids[arg%len(ids)]
				for _, b := range ids {
					if shape(b).Equal(shape(a)) {
						ids = append(ids, g.Add(ops.NewAdd(shape(a), shape(b), tensor.F32), a, b))
						break
					}
				}
			case op == 3: // swap an existing tensor out and back in
				in := ids[arg%len(ids)]
				if ops.IsTransfer(g.Node(in).Op.Kind()) {
					continue
				}
				st := g.Add(ops.NewStore(shape(in), tensor.F32), in)
				ld := g.Add(ops.NewLoad(shape(in), tensor.F32), st)
				ids = append(ids, g.Add(ops.NewEltwise("Op", shape(ld), tensor.F32, 1), ld))
			}
		}
		if g.Len() == 0 {
			return
		}
		checkPlan(t, g, g.Topo())
	})
}

// TestRandomNASNetPlansSatisfyInvariants is the property test over
// realistic irregular DAGs: a single injected *rand.Rand generates a batch
// of NASNet-like workloads (reproducible as one deterministic stream), and
// every plan must satisfy the arena invariants under both the plain
// topological order and the memory-aware schedule.
func TestRandomNASNetPlansSatisfyInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 5; trial++ {
		w := models.RandomNASNetRand(r, 3, 8, 16, 2)
		checkPlan(t, w.G, w.G.Topo())
		var sc sched.Scheduler
		checkPlan(t, w.G, sc.ScheduleGraph(w.G))
	}
}
