package sim

import (
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/ops"
	"magis/internal/sched"
)

// withSwaps returns a copy of g in which every seventh consumed tensor is
// offloaded to host memory and reloaded for its consumers, so the copy
// stream and the transfer fault hooks have work to do.
func withSwaps(g *graph.Graph) *graph.Graph {
	g = g.Clone()
	for i, v := range g.Topo() {
		n := g.Node(v)
		if i%7 != 3 || g.SucEdges(v) == 0 || ops.IsTransfer(n.Op.Kind()) {
			continue
		}
		sh, dt := n.Op.OutShape(), n.Op.DType()
		st := g.Add(ops.NewStore(sh, dt), v)
		ld := g.Add(ops.NewLoad(sh, dt), st)
		g.RedirectConsumers(v, ld, st)
	}
	return g
}

// selfCosted wraps an operator with a fixed latency, the way the
// optimizer's collapsed fission regions price themselves.
type selfCosted struct {
	graph.Op
	lat float64
}

func (s selfCosted) Latency() float64 { return s.lat }

// TestLatencyMatchesRun: the timing pass alone must report exactly the
// makespan of the full simulation, under every input that changes timing.
func TestLatencyMatchesRun(t *testing.T) {
	workloads := []*models.Workload{
		models.MLP(8, 64, 128, 10, 3),
		models.RandomNASNet(1, 4, 8, 16, 2),
		models.BERTBase(2, 16),
	}
	for _, w := range workloads {
		g := withSwaps(w.G)
		order := sched.Schedule(g.Topo())
		costed := g.Clone()
		slow := order[len(order)/2]
		costed.SetOp(slow, selfCosted{costed.Node(slow).Op, 3e-3})
		cases := []struct {
			name string
			g    *graph.Graph
			cfg  Config
		}{
			{"plain", g, Config{Model: model()}},
			{"self-costed", costed, Config{Model: model()}},
			{"faults", g, Config{Model: model(), Faults: &FaultHooks{
				LatencyScale: func(n *graph.Node) float64 { return 1 + float64(n.ID%5)/4 },
				TransferFailures: func(n *graph.Node) int {
					return int(n.ID % 6) // up to 5: some transfers abort
				},
				RetryJitter: 0.3,
				JitterSeed:  7,
			}}},
		}
		for _, c := range cases {
			r := Run(c.g, order, c.cfg)
			if c.name == "faults" && r.Retries == 0 {
				t.Fatalf("%s/%s: no transfer retried; the fault hooks are not exercised", w.Name, c.name)
			}
			if got := Latency(c.g, order, c.cfg); got != r.Latency {
				t.Errorf("%s/%s: Latency = %v, Run latency = %v", w.Name, c.name, got, r.Latency)
			}
		}
	}
}
