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

// TestLatencyMatchesRun: the timing pass alone must report exactly the
// makespan of the full simulation, under every Config that changes timing.
func TestLatencyMatchesRun(t *testing.T) {
	workloads := []*models.Workload{
		models.MLP(8, 64, 128, 10, 3),
		models.RandomNASNet(1, 4, 8, 16, 2),
		models.BERTBase(2, 16),
	}
	for _, w := range workloads {
		g := withSwaps(w.G)
		order := sched.Schedule(g.Topo())
		slow := order[len(order)/2]
		configs := map[string]Config{
			"plain": {Model: model()},
			"node-cost": {Model: model(), NodeCost: func(n *graph.Node) (float64, bool) {
				if n.ID == slow {
					return 3e-3, true
				}
				return 0, false
			}},
			"faults": {Model: model(), Faults: &FaultHooks{
				LatencyScale: func(n *graph.Node) float64 { return 1 + float64(n.ID%5)/4 },
				TransferFailures: func(n *graph.Node) int {
					return int(n.ID % 6) // up to 5: some transfers abort
				},
				RetryJitter: 0.3,
				JitterSeed:  7,
			}},
		}
		for name, cfg := range configs {
			r := Run(g, order, cfg)
			if name == "faults" && r.Retries == 0 {
				t.Fatalf("%s/%s: no transfer retried; the fault hooks are not exercised", w.Name, name)
			}
			if got := Latency(g, order, cfg); got != r.Latency {
				t.Errorf("%s/%s: Latency = %v, Run latency = %v", w.Name, name, got, r.Latency)
			}
		}
	}
}
