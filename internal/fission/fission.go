// Package fission implements Fission Transformation (§4.2): splitting a
// convex, weakly connected sub-graph S along a graph-level dimension into
// n sequentially executed parts. Inputs with a dimension in the chosen
// D-graph are sliced per part, other inputs are shared; outputs with a
// split dimension are merged by Concat, outputs chosen on a reduce axis by
// Add (partial-sum accumulation).
package fission

import (
	"fmt"

	"magis/internal/dgraph"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// Trans is one fission transformation f = (S, D, n). Choice is the
// resolved per-node axis assignment within the component (the concrete
// sub-D-graph D of the paper).
type Trans struct {
	S      graph.Set
	Choice dgraph.Choice
	N      int
}

// Resolve builds a Trans for sub-graph s of g along component comp,
// checking the paper's three constraints: weak connectivity, convexity,
// and exact axis coverage. n may be 1 (a disabled candidate in the F-Tree).
func Resolve(g *graph.Graph, d *dgraph.DGraph, comp dgraph.Component, s graph.Set, n int) (*Trans, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("fission: empty sub-graph")
	}
	if !g.IsWeaklyConnected(s) {
		return nil, fmt.Errorf("fission: sub-graph not weakly connected")
	}
	if !g.IsConvex(s) {
		return nil, fmt.Errorf("fission: sub-graph not convex")
	}
	choice, ok := dgraph.ChoiceFor(d, g, comp, s)
	if !ok {
		return nil, fmt.Errorf("fission: no consistent axis assignment")
	}
	t := &Trans{S: s, Choice: choice, N: n}
	if n > 1 && !t.DivisibleBy(g, n) {
		return nil, fmt.Errorf("fission: axes not divisible by %d", n)
	}
	return t, nil
}

// ValidateOn re-checks the transformation against the CURRENT graph:
// members exist, S is weakly connected and convex, every chosen axis still
// exists, and every internal edge is still covered by a dimension link
// from the producer's chosen axis to the consumer's. Graph rewrites made
// after Resolve can silently invalidate a dormant candidate; callers must
// re-validate before enabling or materializing it.
func (t *Trans) ValidateOn(g *graph.Graph) error {
	for _, v := range t.S {
		if !g.Has(v) {
			return fmt.Errorf("fission: member %d no longer exists", v)
		}
	}
	for v, axis := range t.Choice {
		if !g.Has(v) {
			return fmt.Errorf("fission: choice node %d no longer exists", v)
		}
		spec, ok := g.Node(v).Op.(*ops.Spec)
		if !ok || !spec.HasAxis(axis) {
			return fmt.Errorf("fission: node %d lost axis %d", v, axis)
		}
	}
	if !g.IsWeaklyConnected(t.S) {
		return fmt.Errorf("fission: sub-graph no longer weakly connected")
	}
	if !g.IsConvex(t.S) {
		return fmt.Errorf("fission: sub-graph no longer convex")
	}
	for _, v := range t.S {
		node := g.Node(v)
		spec := node.Op.(*ops.Spec)
		for idx, u := range node.Ins {
			if !t.S.Has(u) {
				continue
			}
			covered := false
			for _, lk := range spec.DimLinks(idx) {
				if lk.In == t.Choice[u] && lk.Out == t.Choice[v] {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("fission: edge %d->%d no longer covered by dimension %d->%d",
					u, v, t.Choice[u], t.Choice[v])
			}
		}
	}
	return nil
}

// axisLen returns the extent of the chosen axis of v.
func axisLen(g *graph.Graph, v graph.NodeID, axis int) int {
	spec := g.Node(v).Op.(*ops.Spec)
	return spec.AxisLen(axis)
}

// MaxParts returns the GCD of all chosen axis extents: every legal fission
// number divides it.
func (t *Trans) MaxParts(g *graph.Graph) int {
	gcd := 0
	for v, axis := range t.Choice {
		gcd = gcdInt(gcd, axisLen(g, v, axis))
	}
	return gcd
}

// DivisibleBy reports whether every chosen axis extent is divisible by n.
func (t *Trans) DivisibleBy(g *graph.Graph, n int) bool {
	m := t.MaxParts(g)
	return m > 0 && m%n == 0
}

// NextParts returns the smallest legal fission number greater than n, or 0
// if none exists (the Mutating rule of §5.1).
func (t *Trans) NextParts(g *graph.Graph, n int) int {
	m := t.MaxParts(g)
	for k := n + 1; k <= m; k++ {
		if m%k == 0 {
			return k
		}
	}
	return 0
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PartSpecs returns, for one split part, the operator of each member of S
// (v's axis divided by t.N). Nodes fail if their axis is not divisible.
func (t *Trans) PartSpecs(g *graph.Graph) (map[graph.NodeID]*ops.Spec, error) {
	out := make(map[graph.NodeID]*ops.Spec, len(t.S))
	for _, v := range t.S {
		spec := g.Node(v).Op.(*ops.Spec)
		part, err := spec.SplitAxis(t.Choice[v], t.N)
		if err != nil {
			return nil, fmt.Errorf("fission: node %d: %v", v, err)
		}
		out[v] = part
	}
	return out, nil
}

// ApplyResult describes a materialized fission.
type ApplyResult struct {
	// Graph is the expanded graph (the input graph is not modified).
	Graph *graph.Graph
	// Merged maps each original output of S to the node merging its parts.
	Merged map[graph.NodeID]graph.NodeID
	// Slices maps each created input-slice node to the input it slices.
	Slices map[graph.NodeID]graph.NodeID
	// Replicas lists the per-part copies of S's members.
	Replicas []graph.NodeID
}

// Apply materializes the fission on a clone of g. The original members of
// S are removed from the result.
func (t *Trans) Apply(g *graph.Graph) (*ApplyResult, error) {
	if t.N < 2 {
		return nil, fmt.Errorf("fission: Apply needs n >= 2, got %d", t.N)
	}
	parts, err := t.PartSpecs(g)
	if err != nil {
		return nil, err
	}
	ng := g.Clone()
	res := &ApplyResult{
		Graph:  ng,
		Merged: make(map[graph.NodeID]graph.NodeID),
		Slices: make(map[graph.NodeID]graph.NodeID),
	}
	// Slice shared inputs that carry a split dimension.
	sliced := make(map[graph.NodeID][]graph.NodeID) // input -> per-part slice
	for u, axis := range t.Choice {
		if t.S.Has(u) || axis <= 0 {
			continue
		}
		spec := ng.Node(u).Op.(*ops.Spec)
		l := spec.OutShape().Dim(axis)
		step := l / t.N
		for p := 0; p < t.N; p++ {
			s := ops.NewSlice(spec.OutShape(), axis, p*step, step, spec.DType())
			id := ng.Add(s, u)
			sliced[u] = append(sliced[u], id)
			res.Slices[id] = u
		}
	}
	// Replicate the sub-graph per part, topologically.
	order := g.TopoWithin(t.S)
	replica := make([]map[graph.NodeID]graph.NodeID, t.N)
	for p := 0; p < t.N; p++ {
		replica[p] = make(map[graph.NodeID]graph.NodeID, len(t.S))
		for _, v := range order {
			spec := parts[v]
			var ins []graph.NodeID
			for _, in := range g.Node(v).Ins {
				switch {
				case t.S.Has(in):
					ins = append(ins, replica[p][in])
				case sliced[in] != nil:
					ins = append(ins, sliced[in][p])
				default:
					ins = append(ins, in)
				}
			}
			id := ng.AddNamed(fmt.Sprintf("%s#%d", g.Node(v).Name, p), spec, ins...)
			replica[p][v] = id
			res.Replicas = append(res.Replicas, id)
		}
	}
	// Merge outputs and rewire external consumers.
	merged := res.Merged
	for _, v := range g.Outs(t.S) {
		pieces := make([]graph.NodeID, t.N)
		for p := 0; p < t.N; p++ {
			pieces[p] = replica[p][v]
		}
		axis := t.Choice[v]
		var m graph.NodeID
		if axis > 0 {
			shapes := make([]tensor.Shape, t.N)
			for p := range pieces {
				shapes[p] = ng.Node(pieces[p]).Op.OutShape()
			}
			m = ng.Add(ops.NewConcat(shapes, axis, ng.Node(pieces[0]).Op.DType()), pieces...)
		} else {
			// Partial reductions accumulate with an Add chain, preserving
			// the sequential part order. Intermediate accumulation steps
			// count as replicas for nesting purposes.
			m = pieces[0]
			for p := 1; p < t.N; p++ {
				sh := ng.Node(m).Op.OutShape()
				m = ng.Add(ops.NewAdd(sh, sh, ng.Node(m).Op.DType()), m, pieces[p])
				if p < t.N-1 {
					res.Replicas = append(res.Replicas, m)
				}
			}
		}
		ng.RedirectConsumers(v, m)
		merged[v] = m
	}
	// Remove the replaced originals (and anything now dead). Liveness is
	// anchored at the ORIGINAL graph's outputs (mapped through the merge),
	// not ng.Outputs(): the detached originals would otherwise appear as
	// outputs themselves and survive.
	var keep []graph.NodeID
	for _, v := range g.Outputs() {
		if m, ok := merged[v]; ok {
			keep = append(keep, m)
		} else {
			keep = append(keep, v)
		}
	}
	ng.RemoveDead(keep)
	for _, v := range t.S {
		if ng.Has(v) {
			return nil, fmt.Errorf("fission: original node %d still live after apply", v)
		}
	}
	return res, nil
}

// Inputs returns the sliced and shared inputs of the transformation,
// each ascending.
func (t *Trans) Inputs(g *graph.Graph) (slicedIn, sharedIn []graph.NodeID) {
	for _, u := range g.Inps(t.S) {
		if axis, ok := t.Choice[u]; ok && axis > 0 {
			slicedIn = append(slicedIn, u)
		} else {
			sharedIn = append(sharedIn, u)
		}
	}
	return
}
