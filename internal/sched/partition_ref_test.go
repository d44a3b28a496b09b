package sched

import (
	"slices"
	"sort"

	"magis/internal/graph"
)

// This file keeps the scheduler's former sub-problem path as the
// differential reference for the in-place one: narrow-waist partitioning
// over sorted member lists with a Subgraph and a ReachIndex per component,
// and problems built from a standalone graph. Each segment was then
// scheduled as DpSchedule(g.Subgraph(seg)).

// refGraphPartition splits the node set w of g into segments that can be
// scheduled independently and concatenated (§6.1): within each weakly
// connected component of G[w], nodes whose narrow-waist value is at most 1
// act as dividing points — everything not descending from a divider is
// sequenced before it, everything descending after. Returned segments are
// topologically ordered.
func refGraphPartition(g *graph.Graph, w graph.Set) [][]graph.NodeID {
	var segs [][]graph.NodeID
	for _, comp := range g.Components(w) {
		sub := g.Subgraph(graph.NewSet(comp...))
		reach := graph.NewReachIndex(sub)
		var dividers []graph.NodeID
		for _, v := range comp {
			if reach.NW(v) <= 1 {
				dividers = append(dividers, v)
			}
		}
		sort.Slice(dividers, func(i, j int) bool {
			ai, aj := reach.NumAnc(dividers[i]), reach.NumAnc(dividers[j])
			if ai != aj {
				return ai < aj
			}
			return dividers[i] < dividers[j]
		})
		remaining := comp
		for _, d := range dividers {
			if !slices.Contains(remaining, d) {
				continue
			}
			var seg, next []graph.NodeID
			for _, v := range remaining {
				if reach.IsDes(d, v) {
					next = append(next, v)
				} else {
					seg = append(seg, v)
				}
			}
			if len(seg) == 0 || len(next) == 0 {
				continue
			}
			segs = append(segs, seg)
			remaining = next
		}
		if len(remaining) > 0 {
			segs = append(segs, remaining)
		}
	}
	return segs
}

// refProblem builds the problem of the standalone graph g the way the
// scheduler did before sub-problems were built in place: nodes in
// g.Topo() order, distinct predecessors in input order, consumers in
// ascending index order, and hasCons from g's consumer edges.
func refProblem(g *graph.Graph) *problem {
	p := &problem{ids: g.Topo()}
	n := len(p.ids)
	idx := make(map[graph.NodeID]int32, n)
	for i, v := range p.ids {
		idx[v] = int32(i)
	}
	p.preds = make([][]int32, n)
	p.sucs = make([][]int32, n)
	for i, v := range p.ids {
		node := g.Node(v)
		p.size = append(p.size, OutDeviceBytes(node))
		p.trans = append(p.trans, ExecTransientBytes(node))
		p.hasCons = append(p.hasCons, g.SucEdges(v) > 0)
	ins:
		for _, u := range node.Ins {
			for _, j := range p.preds[i] {
				if j == idx[u] {
					continue ins
				}
			}
			p.preds[i] = append(p.preds[i], idx[u])
		}
	}
	for i := range p.preds {
		for _, u := range p.preds[i] {
			p.sucs[u] = append(p.sucs[u], int32(i))
		}
	}
	if n <= 64 {
		p.predMask = make([]uint64, n)
		p.sucMask = make([]uint64, n)
		for i := range p.preds {
			for _, u := range p.preds[i] {
				p.predMask[i] |= 1 << u
				p.sucMask[u] |= 1 << i
			}
		}
	}
	return p
}
