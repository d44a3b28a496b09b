package opt

import (
	"fmt"

	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/sched"
)

// Warm starts let a cached plan pre-seed a fresh search: instead of
// climbing from the unoptimized graph, the frontier starts with the
// cached plan's transformation state replayed and re-evaluated, so the
// search resumes refining a known-good region of the space. The contract
// is strictly best-effort — a seed that fails to replay (missing nodes,
// stale fission choices, a panic anywhere in re-evaluation) is dropped
// with a diagnostic and the search degrades to a cold start. A seed can
// therefore never make a search wrong, only warmer.

// PlanRecord is the portable, serializable record of one optimized plan:
// the logical graph (rewrites included), the F-Tree (the fission
// transformation sequence with its enabled choices), and the schedule.
// It is the unit the plan cache persists and replays.
type PlanRecord struct {
	G     *graphio.GraphRecord `json:"g"`
	FT    []*ftNodeRec         `json:"ft,omitempty"`
	Sched sched.Schedule       `json:"sched,omitempty"`
}

// RecordPlan captures a search result's best state as a PlanRecord.
func RecordPlan(s *State) (*PlanRecord, error) {
	if s == nil || s.G == nil {
		return nil, fmt.Errorf("opt: plan record: no state")
	}
	g, err := graphio.Record(s.G)
	if err != nil {
		return nil, fmt.Errorf("opt: plan record: %w", err)
	}
	return &PlanRecord{
		G:     g,
		FT:    recordTree(s.FT),
		Sched: append(sched.Schedule(nil), s.Sched...),
	}, nil
}

// Seed restores the full recorded state — logical graph and F-Tree — for
// use against the same input graph the plan was recorded from (e.g. an
// identical request with a different search budget). The returned state
// is un-evaluated; OptimizeSeeded re-prices it with the live evaluator,
// so cached bytes can never smuggle in stale metrics.
func (r *PlanRecord) Seed() (*State, error) {
	g, err := r.G.Restore()
	if err != nil {
		return nil, fmt.Errorf("opt: warm start: %w", err)
	}
	ft, err := restoreTree(r.FT)
	if err != nil {
		return nil, fmt.Errorf("opt: warm start: %w", err)
	}
	return &State{G: g, FT: ft}, nil
}

// SeedFor replays the record's transformation state onto a different
// graph of the same topology (typically the same model at another batch
// size). Only the F-Tree half replays — fission regions are node-ID sets,
// valid wherever the same construction order produced the same IDs —
// while graph rewrites are shape-bound and are left for the search to
// rediscover. Regions referencing nodes absent from g (e.g. regions the
// recorded plan carved out of rewritten subgraphs) are pruned, their
// still-valid sub-regions promoted in their place; a fully pruned tree
// degrades the seed to the plain initial state, which the search's
// duplicate filter then discards. A seed from SeedFor can therefore warm
// the search or do nothing, but never mislead it.
func (r *PlanRecord) SeedFor(g *graph.Graph) (*State, error) {
	if g == nil {
		return nil, fmt.Errorf("opt: warm start: nil target graph")
	}
	ft, err := restoreTree(r.FT)
	if err != nil {
		return nil, fmt.Errorf("opt: warm start: %w", err)
	}
	rg, err := r.G.Restore()
	if err != nil {
		return nil, fmt.Errorf("opt: warm start: %w", err)
	}
	return &State{G: g.Clone(), FT: pruneTree(ft, g, rg)}, nil
}

// pruneTree removes F-Tree nodes whose region includes nodes g does not
// have — or whose operator kind differs from the recorded graph's, i.e.
// an ID that exists by coincidence but stands for a different operator —
// promoting valid descendants into the removed node's place so a
// partially replayable hierarchy keeps its replayable parts.
func pruneTree(t *ftree.Tree, g, recorded *graph.Graph) *ftree.Tree {
	valid := func(n *ftree.Node) bool {
		for _, v := range n.T.S {
			if !g.Has(v) {
				return false
			}
			if recorded.Has(v) && g.Node(v).Op.Kind() != recorded.Node(v).Op.Kind() {
				return false
			}
		}
		return true
	}
	var keep func(n, parent *ftree.Node, out *[]*ftree.Node)
	keep = func(n, parent *ftree.Node, out *[]*ftree.Node) {
		if valid(n) {
			n.Parent = parent
			kids := n.Children
			n.Children = nil
			for _, c := range kids {
				keep(c, n, &n.Children)
			}
			*out = append(*out, n)
			return
		}
		for _, c := range n.Children {
			keep(c, parent, out)
		}
	}
	nt := &ftree.Tree{}
	for _, rt := range t.Roots {
		keep(rt, nil, &nt.Roots)
	}
	return nt
}
