package opt

import (
	"context"
	"testing"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/models"
)

func warmTestOptions() Options {
	return Options{
		Mode:            MemoryUnderLatency,
		TimeBudget:      30 * time.Second,
		MaxIterations:   12,
		Workers:         1,
		CheckInvariants: true,
	}
}

// TestWarmStartRoundTrip: record a finished search's best plan, replay it
// as a seed into a fresh search on the same graph, and require (a) the
// seed to be admitted and (b) the warm result to be at least as good as
// the recorded plan — the seed bounds the search from below.
func TestWarmStartRoundTrip(t *testing.T) {
	model := cost.NewModel(cost.RTX3090())
	w := models.MLP(64, 32, 64, 16, 3)

	cold, err := Optimize(w.G, model, warmTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordPlan(cold.Best)
	if err != nil {
		t.Fatal(err)
	}

	seed, err := rec.Seed()
	if err != nil {
		t.Fatal(err)
	}
	o := warmTestOptions()
	o.MaxIterations = 2 // barely any search: the seed must carry the result
	warm, err := OptimizeSeeded(context.Background(), w.G, model, o, seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := warm.Diagnostics.Rules[warmRuleName]; d == nil || d.Evaluated != 1 {
		t.Fatalf("warm-start diag = %+v, want 1 evaluated seed", d)
	}
	if warm.Best.PeakMem > cold.Best.PeakMem {
		t.Errorf("warm best peak %d worse than the seeded plan's %d", warm.Best.PeakMem, cold.Best.PeakMem)
	}
}

// TestWarmStartSeedForOtherBatch replays a plan's fission state onto the
// same model built at a different batch size (same topology and node IDs,
// different shapes).
func TestWarmStartSeedForOtherBatch(t *testing.T) {
	model := cost.NewModel(cost.RTX3090())
	small := models.MLP(64, 32, 64, 16, 3)

	cold, err := Optimize(small.G, model, warmTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordPlan(cold.Best)
	if err != nil {
		t.Fatal(err)
	}

	big := models.MLP(128, 32, 64, 16, 3)
	seed, err := rec.SeedFor(big.G)
	if err != nil {
		t.Fatalf("SeedFor on same-topology graph: %v", err)
	}
	// Regions carved out of rewritten subgraphs prune away; whatever
	// replays must reference only nodes of the target graph.
	seed.FT.Walk(func(n *ftree.Node) {
		for _, v := range n.T.S {
			if !big.G.Has(v) {
				t.Fatalf("pruned tree still references absent node %d", v)
			}
		}
	})
	warm, err := OptimizeSeeded(context.Background(), big.G, model, warmTestOptions(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best == nil || warm.Best.PeakMem <= 0 {
		t.Fatalf("warm search on replayed seed produced no result: %+v", warm.Best)
	}
}

// TestWarmStartDegradesOnBadSeed: a seed whose F-Tree references nodes
// the graph does not have must be dropped with a diagnostic, leaving the
// search to complete cold — never to crash or go wrong.
func TestWarmStartDegradesOnBadSeed(t *testing.T) {
	model := cost.NewModel(cost.RTX3090())
	w := models.MLP(64, 32, 64, 16, 3)

	// SeedFor detects the mismatch up front.
	cold, err := Optimize(w.G, model, warmTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordPlan(cold.Best)
	if err != nil {
		t.Fatal(err)
	}
	// SeedFor against an unrelated tiny graph prunes to (at most) regions
	// that happen to be valid there; the result must never reference
	// absent nodes, and a search over it must still complete.
	tiny := models.MLP(4, 4, 4, 2, 1)
	pruned, err := rec.SeedFor(tiny.G)
	if err != nil {
		t.Fatal(err)
	}
	pruned.FT.Walk(func(n *ftree.Node) {
		for _, v := range n.T.S {
			if !tiny.G.Has(v) {
				t.Fatalf("pruned tree references node %d absent from target", v)
			}
		}
	})
	if _, err := OptimizeSeeded(context.Background(), tiny.G, model, warmTestOptions(), pruned); err != nil {
		t.Fatalf("search over pruned seed: %v", err)
	}

	// A hand-corrupted seed state that slips past construction is dropped
	// during evaluation and the search still completes.
	badG := w.G.Clone()
	bad := &State{G: badG, FT: &ftree.Tree{}}
	bad.G = nil // nil graph: rejected before any work
	res, err := OptimizeSeeded(context.Background(), w.G, model, warmTestOptions(), bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("degraded search returned no best state")
	}
}
