package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// This file keeps the collapse that graph.Contract replaced as the
// differential reference for the new one. The reference always clones the
// logical graph, prices every region without the memo, and replaces each
// region by adding the region node, rewiring the members' external
// consumers, checking the whole graph for a cycle with TopoE and removing
// the members in reverse TopoWithin order. A panic in either counts as an
// error, since the search's guard turns one into a failed candidate.

// refCollapse is the reference of collapser.Collapse.
func refCollapse(c *collapser, g *graph.Graph, t *ftree.Tree) (eg *graph.Graph, regions map[string]graph.NodeID, err error) {
	defer func() {
		if r := recover(); r != nil {
			eg, regions, err = nil, nil, fmt.Errorf("reference collapse panicked: %v", r)
		}
	}()
	eg = g.Clone()
	regions = make(map[string]graph.NodeID)
	for _, n := range t.EnabledNodes() {
		if n.HasEnabledAncestor() {
			continue
		}
		op, err := refRegionOp(c, g, n, nil)
		if err != nil {
			return nil, nil, err
		}
		id, err := refReplaceRegion(eg, n.T.S, op)
		if err != nil {
			return nil, nil, err
		}
		regions[regionKey(n.T.S)] = id
	}
	return eg, regions, nil
}

// refReplaceRegion substitutes the member set s of eg with one region node.
func refReplaceRegion(eg *graph.Graph, s graph.Set, op *RegionOp) (graph.NodeID, error) {
	id := eg.Add(op, eg.Inps(s)...)
	for _, v := range eg.Outs(s) {
		for _, c := range eg.Suc(v) {
			if c != id && !s.Has(c) {
				eg.ReplaceInput(c, v, id)
			}
		}
	}
	if _, err := eg.TopoE(); err != nil {
		return graph.Invalid, fmt.Errorf("%w: region at %d: %w", ErrCollapse, s[0], err)
	}
	members := eg.TopoWithin(s)
	for i := len(members) - 1; i >= 0; i-- {
		if err := eg.Remove(members[i]); err != nil {
			return graph.Invalid, fmt.Errorf("%w: %w", ErrCollapse, err)
		}
	}
	return id, nil
}

// refRegionOp is the reference of collapser.regionOp: the boundary is
// derived where it is read, and nested regions are replaced by
// refReplaceRegion.
func refRegionOp(c *collapser, g *graph.Graph, n *ftree.Node, overrides map[graph.NodeID]*ops.Spec) (*RegionOp, error) {
	if overrides == nil {
		if err := n.T.ValidateOn(g); err != nil {
			return nil, err
		}
	}
	base := func(v graph.NodeID) (*ops.Spec, error) {
		if overrides != nil {
			if s, ok := overrides[v]; ok {
				return s, nil
			}
		}
		s, ok := g.Node(v).Op.(*ops.Spec)
		if !ok {
			return nil, fmt.Errorf("%w: region member %d is not an ops.Spec", ErrCollapse, v)
		}
		return s, nil
	}
	part := make(map[graph.NodeID]*ops.Spec, len(n.T.S))
	for _, v := range n.T.S {
		spec, err := base(v)
		if err != nil {
			return nil, err
		}
		ps, err := spec.SplitAxis(n.T.Choice[v], n.N)
		if err != nil {
			return nil, fmt.Errorf("%w: region split: %w", ErrCollapse, err)
		}
		part[v] = ps
	}
	pg := graph.New()
	idMap := make(map[graph.NodeID]graph.NodeID, len(n.T.S))
	var sliceLat float64
	slicedIn, _ := n.T.Inputs(g)
	for _, u := range slicedIn {
		spec, err := base(u)
		if err != nil {
			s, ok := g.Node(u).Op.(*ops.Spec)
			if !ok {
				return nil, err
			}
			spec = s
		}
		axis := n.T.Choice[u]
		full := spec.OutShape()
		sl := ops.NewSlice(full, axis, 0, full.Dim(axis)/n.N, spec.DType())
		idMap[u] = pg.Add(ops.NewInput(sl.OutShape(), spec.DType()))
		sliceLat += c.model.OpLatency(sl)
	}
	for _, v := range g.TopoWithin(n.T.S) {
		var ins []graph.NodeID
		for _, in := range g.Node(v).Ins {
			if m, ok := idMap[in]; ok && (n.T.S.Has(in) || slices.Contains(slicedIn, in)) {
				ins = append(ins, m)
			}
		}
		idMap[v] = pg.Add(part[v], ins...)
	}
	outs := g.Outs(n.T.S)
	for _, v := range outs {
		if n.T.Choice[v] >= 0 {
			continue
		}
		ps := part[v]
		acc := pg.Add(ops.NewInput(ps.OutShape(), ps.DType()))
		pg.Add(ops.NewAdd(ps.OutShape(), ps.OutShape(), ps.DType()), acc, idMap[v])
	}
	for _, child := range directEnabledChildren(n) {
		childOverrides := make(map[graph.NodeID]*ops.Spec, len(child.T.S))
		for _, v := range child.T.S {
			childOverrides[v] = part[v]
		}
		cop, err := refRegionOp(c, g, child, childOverrides)
		if err != nil {
			return nil, err
		}
		ids := make([]graph.NodeID, len(child.T.S))
		for i, v := range child.T.S {
			ids[i] = idMap[v]
		}
		if _, err := refReplaceRegion(pg, graph.NewSet(ids...), cop); err != nil {
			return nil, err
		}
	}
	order := c.sc.ScheduleGraph(pg)
	partPeak := c.peakOnly(pg, order)
	var partLat float64
	for _, id := range pg.NodeIDs() {
		node := pg.Node(id)
		if rop, ok := node.Op.(*RegionOp); ok {
			partLat += rop.Latency()
			continue
		}
		partLat += c.model.NodeLatency(node)
	}
	var concatOut, reduceOut int64
	var mergeLat float64
	for _, v := range outs {
		ps := part[v]
		bytes := tensor.Bytes(ps.OutShape(), ps.DType())
		if n.T.Choice[v] > 0 {
			concatOut += bytes * int64(n.N)
			shapes := make([]tensor.Shape, n.N)
			for i := range shapes {
				shapes[i] = ps.OutShape()
			}
			mergeLat += c.model.OpLatency(ops.NewConcat(shapes, n.T.Choice[v], ps.DType()))
		} else {
			reduceOut += bytes
		}
	}
	outBytes := concatOut + reduceOut
	peakDuring := partPeak + concatOut*int64(n.N-1)/int64(n.N)
	transient := peakDuring - outBytes
	if transient < 0 {
		transient = 0
	}
	return &RegionOp{
		name:      fmt.Sprintf("region@%d", n.T.S[0]),
		outBytes:  outBytes,
		transient: transient,
		lat:       float64(n.N)*(partLat+sliceLat) + mergeLat,
		n:         n.N,
		members:   len(n.T.S),
	}, nil
}

// sameCollapse reports how two collapsed graphs differ, or "" when they
// are identical: the same node IDs and next ID, the same operator at each
// node (region nodes compared by value), and the same input and consumer
// lists in the same order.
func sameCollapse(got, want *graph.Graph) string {
	if got.NextID() != want.NextID() || got.Len() != want.Len() {
		return fmt.Sprintf("%d nodes, next ID %d; want %d, %d", got.Len(), got.NextID(), want.Len(), want.NextID())
	}
	for id := graph.NodeID(0); id < got.NextID(); id++ {
		a, b := got.Node(id), want.Node(id)
		if (a == nil) != (b == nil) {
			return fmt.Sprintf("node %d present %v, want %v", id, a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		ra, aok := a.Op.(*RegionOp)
		rb, bok := b.Op.(*RegionOp)
		switch {
		case aok != bok:
			return fmt.Sprintf("node %d: op %s, want %s", id, a.Op.Kind(), b.Op.Kind())
		case aok && *ra != *rb:
			return fmt.Sprintf("node %d: region %+v, want %+v", id, *ra, *rb)
		case !aok && a.Op != b.Op:
			return fmt.Sprintf("node %d: op %s, want %s", id, a.Op.Kind(), b.Op.Kind())
		}
		if !slices.Equal(a.Ins, b.Ins) {
			return fmt.Sprintf("node %d: ins %v, want %v", id, a.Ins, b.Ins)
		}
		var sa, sb []graph.NodeID
		got.EachSucEdge(id, func(c graph.NodeID) { sa = append(sa, c) })
		want.EachSucEdge(id, func(c graph.NodeID) { sb = append(sb, c) })
		if !slices.Equal(sa, sb) {
			return fmt.Sprintf("node %d: consumers %v, want %v", id, sa, sb)
		}
	}
	if h, w := got.WLHash(), want.WLHash(); h != w {
		return fmt.Sprintf("WL hash %#x, want %#x", h, w)
	}
	return ""
}

// randomEnables returns a copy of t, the tree of g, with each candidate
// enabled at a random legal fission number with probability p, and
// disabled otherwise.
// With overlap set, one enabled node that has an enabled ancestor is also
// added as an extra root, as a tree rebuild keeps an enabled region the
// fresh tree lost: it then overlaps another outermost region.
func randomEnables(rng *rand.Rand, t *ftree.Tree, g *graph.Graph, p float64, overlap bool) *ftree.Tree {
	c := t.Clone()
	c.Walk(func(n *ftree.Node) {
		n.N = 1
		if rng.Float64() >= p {
			return
		}
		var legal []int
		for k := n.T.NextParts(g, 1); k > 0 && len(legal) < 3; k = n.T.NextParts(g, k) {
			legal = append(legal, k)
		}
		if len(legal) > 0 {
			n.N = legal[rng.Intn(len(legal))]
		}
	})
	if overlap {
		for _, n := range c.EnabledNodes() {
			if n.HasEnabledAncestor() {
				c.Roots = append(c.Roots, &ftree.Node{T: n.T, N: n.N})
				break
			}
		}
	}
	return c
}

// interleaved returns a graph with two fission regions, A = {a1, a2} and
// B = {b1, b2}, each convex on its own. A consumes b1 and B consumes a1,
// so once either is contracted the other is no longer convex: collapsing
// both must fail.
func interleaved(t *testing.T) (*graph.Graph, *ftree.Tree) {
	sh := tensor.S(64, 128)
	g := graph.New()
	x := g.Add(ops.NewInput(sh, tensor.F32))
	y := g.Add(ops.NewInput(sh, tensor.F32))
	a1 := g.Add(ops.NewReLU(sh, tensor.F32), x)
	b1 := g.Add(ops.NewReLU(sh, tensor.F32), y)
	a2 := g.Add(ops.NewAdd(sh, sh, tensor.F32), a1, b1)
	b2 := g.Add(ops.NewAdd(sh, sh, tensor.F32), b1, a1)
	g.Add(ops.NewAdd(sh, sh, tensor.F32), a2, b2)
	d := dgraph.Build(g)
	comp := d.ComponentOf(dgraph.DimNode{Node: a1, Axis: 1})
	tr := &ftree.Tree{}
	for _, s := range []graph.Set{graph.NewSet(a1, a2), graph.NewSet(b1, b2)} {
		f, err := fission.Resolve(g, d, comp, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr.Roots = append(tr.Roots, &ftree.Node{T: f, N: 1})
	}
	return g, tr
}

// TestCollapseMatchesReference runs the collapse and its reference over
// random enable sets on BERT-base, NASNet-528 and the interleaved graph,
// on the input graph and on rewrites of it (whose dormant regions may have
// gone stale), and checks that both fail or both give the same graph and
// region nodes. It also checks that the input graph is never modified and
// that a collapse with nothing to collapse returns the input graph itself.
func TestCollapseMatchesReference(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	m := model()
	ig, itree := interleaved(t)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		t    *ftree.Tree
	}{
		{"bert-base", bertBase().G, nil},
		{"nasnet-528", nasnet528().G, nil},
		{"interleaved", ig, itree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			st, res := &State{G: tc.g}, &Result{}
			ev := newEvaluator(m, &res.Stats)
			if err := ev.evaluate(st, nil, nil); err != nil {
				t.Fatal(err)
			}
			ev.hot(st)
			st.FT = tc.t
			if st.FT == nil {
				st.FT = ftree.Build(st.G, st.Hot, ftree.Options{})
			}
			// The input graph and up to four rewrites of it, all under the
			// input's tree.
			inputs := []*graph.Graph{st.G}
			o := &Options{}
			o.defaults()
			for _, c := range neighbors(st, o, res, newQuarantine(o.QuarantineAfter)) {
				if c.state.G != st.G && len(inputs) < 5 {
					inputs = append(inputs, c.state.G)
				}
			}
			newC := &collapser{model: m, sc: &sched.Scheduler{}}
			refC := &collapser{model: m, sc: &sched.Scheduler{}}
			var ok, failed, aliased int
			for i := 0; i < trials; i++ {
				g := inputs[rng.Intn(len(inputs))]
				ft := randomEnables(rng, st.FT, st.G, 0.3, i%5 == 4)
				before := g.WLHash()
				var eg *graph.Graph
				var regions map[string]graph.NodeID
				err := guard("test", "collapse", func() (err error) {
					eg, regions, err = newC.Collapse(g, ft)
					return err
				})
				req, rregions, rerr := refCollapse(refC, g, ft)
				if g.WLHash() != before {
					t.Fatalf("trial %d: collapse modified its input graph", i)
				}
				if (err == nil) != (rerr == nil) {
					t.Fatalf("trial %d: error %v, reference error %v", i, err, rerr)
				}
				if err != nil {
					failed++
					continue
				}
				ok++
				if diff := sameCollapse(eg, req); diff != "" {
					t.Fatalf("trial %d: %s", i, diff)
				}
				if len(regions) != len(rregions) {
					t.Fatalf("trial %d: %d regions, reference %d", i, len(regions), len(rregions))
				}
				for k, id := range rregions {
					if regions[k] != id {
						t.Fatalf("trial %d: region node %d, reference %d", i, regions[k], id)
					}
				}
				if (len(regions) == 0) != (eg == g) {
					t.Fatalf("trial %d: %d regions, evaluation graph aliased %v", i, len(regions), eg == g)
				}
				if eg == g {
					aliased++
				}
			}
			t.Logf("%d trials: %d collapsed (%d with nothing to collapse), %d failed", trials, ok, aliased, failed)
			if ok == 0 {
				t.Error("no trial collapsed")
			}
			if tc.name == "interleaved" && failed == 0 {
				t.Error("no trial enabled both interleaved regions")
			}
		})
	}
}
