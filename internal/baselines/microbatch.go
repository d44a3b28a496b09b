package baselines

import (
	"fmt"

	"magis/internal/cost"
	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
)

// MicroBatch pre-splits the whole graph along the batch dimension into
// `Factor` sequential micro-batches — the simple whole-graph F-Trans the
// paper uses in §7.2.4 to augment POFO (Fig. 12) — then runs an inner
// baseline on the expanded graph.
type MicroBatch struct {
	Inner  Optimizer
	Factor int
}

// Name implements Optimizer.
func (mb MicroBatch) Name() string {
	return fmt.Sprintf("%s(mb=%d)", mb.Inner.Name(), mb.Factor)
}

// OptimizeMem implements Optimizer.
func (mb MicroBatch) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	ng, err := SplitBatch(g, mb.Factor)
	if err != nil {
		return Result{OK: false}
	}
	return mb.Inner.OptimizeMem(ng, m, memLimit)
}

// SplitBatch materializes a whole-graph batch fission with the given
// factor. The batch dimension is identified as the largest D-graph
// component whose member set admits a valid fission covering most of the
// graph's non-leaf nodes.
func SplitBatch(g *graph.Graph, factor int) (*graph.Graph, error) {
	d := dgraph.Build(g)
	var bestTr *fission.Trans
	bestSize := 0
	for _, comp := range d.Components() {
		var ids []graph.NodeID
		for _, v := range comp.GraphNodes() {
			if len(g.Pre(v)) > 0 { // exclude leaves: they are sliced inputs
				ids = append(ids, v)
			}
		}
		members := graph.NewSet(ids...)
		if len(members) <= bestSize {
			continue
		}
		tr, err := fission.Resolve(g, d, comp, members, factor)
		if err != nil {
			continue
		}
		bestTr = tr
		bestSize = len(members)
	}
	if bestTr == nil {
		return nil, fmt.Errorf("baselines: no batch dimension admits factor %d", factor)
	}
	res, err := bestTr.Apply(g)
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}
