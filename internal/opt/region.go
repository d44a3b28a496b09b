// Package opt implements M-State and M-Optimizer (§3, §6): the unified
// search over graph transformations, F-Tree mutations, and scheduling.
// Enabled F-Tree regions are never materialized during search — each is
// collapsed into a single RegionOp node whose memory and latency are
// computed analytically from one split part (the F-Tree's whole point:
// keeping complexity low, §4.3).
package opt

import (
	"fmt"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/sim"
	"magis/internal/tensor"
)

// RegionOp is the payload of a collapsed fission region in an evaluation
// graph. It implements graph.Op, sched.DeviceSizer and sim.SelfCosted.
type RegionOp struct {
	name      string
	outBytes  int64
	transient int64
	lat       float64
	n         int
	members   int
}

// Kind implements graph.Op.
func (r *RegionOp) Kind() string { return "FissionRegion" }

// OutShape implements graph.Op; regions carry opaque byte sizes instead.
func (r *RegionOp) OutShape() tensor.Shape { return tensor.S() }

// DType implements graph.Op.
func (r *RegionOp) DType() tensor.DType { return tensor.F32 }

// AttrKey folds the region parameters into state hashing.
func (r *RegionOp) AttrKey() string {
	return fmt.Sprintf("%s|n%d|m%d|o%d|t%d|l%.3g", r.name, r.n, r.members, r.outBytes, r.transient, r.lat)
}

// OutDeviceBytes implements sched.DeviceSizer: the merged outputs persist.
func (r *RegionOp) OutDeviceBytes() int64 { return r.outBytes }

// ExecTransientBytes implements sched.DeviceSizer: extra memory while the
// region's parts execute.
func (r *RegionOp) ExecTransientBytes() int64 { return r.transient }

// Latency implements sim.SelfCosted: the end-to-end time of all n
// sequential parts plus merges.
func (r *RegionOp) Latency() float64 { return r.lat }

var _ sim.SelfCosted = (*RegionOp)(nil)

// Parts returns the fission number.
func (r *RegionOp) Parts() int { return r.n }

// collapser builds evaluation graphs. ss points at the owning evaluator's
// lifetime scratch (nil falls back to allocating per call), so region
// accounting shares the evaluator's buffers.
//
// Region pricing dominates evaluation cost (the beam scheduler runs over
// every region's one-part graph), yet candidates of one expansion differ by
// a single rewrite, so almost every region is identical to one priced
// before. regionOp therefore memoizes on a content key covering everything
// the accounting reads: fission number, member IDs with choices, operator
// descriptors, internal wiring, output membership, sliced inputs, and the
// recursive structure of nested enabled regions. Operator identity is
// folded via specID, a pointer-to-ordinal table — safe against address
// reuse precisely because the table retains its *Spec keys, so a mapped
// descriptor can never be collected and its address never recycled. The
// tables reset together once the memo outgrows memoLimit.
//
// A memo hit skips ValidateOn; of its checks only convexity can silently
// rot through key-invisible *external* graph edits, and that case still
// fails loudly per candidate: graph.Contract refuses a non-convex region.
//
// Each region's boundary in the logical graph (its outputs and sliced
// inputs) is derived once per collapse and shared by the memo key and the
// pricing; bnd holds them for the region being collapsed.
type collapser struct {
	model *cost.Model
	sc    *sched.Scheduler
	ss    *sched.Scratch

	memo   map[string]*RegionOp
	specID map[*ops.Spec]int32
	keyBuf []byte
	bnd    map[*ftree.Node]*boundary
	// splits maps a member's descriptor, axis and fission number to its
	// one-part descriptor, so a region priced again after a memo miss
	// reuses its members' parts and their memoized latencies.
	splits map[splitKey]*ops.Spec
}

type splitKey struct {
	spec    *ops.Spec
	axis, n int
}

// split returns spec's one-part descriptor for n parts along axis.
func (c *collapser) split(spec *ops.Spec, axis, n int) (*ops.Spec, error) {
	k := splitKey{spec, axis, n}
	if ps, ok := c.splits[k]; ok {
		return ps, nil
	}
	ps, err := spec.SplitAxis(axis, n)
	if err != nil {
		return nil, err
	}
	if len(c.splits) >= splitLimit {
		c.splits = nil
	}
	if c.splits == nil {
		c.splits = make(map[splitKey]*ops.Spec)
	}
	c.splits[k] = ps
	return ps, nil
}

// boundary is an enabled region's frontier in the logical graph: the
// members read outside it (G.outs(S)) and the external inputs sliced along
// a split axis, both ascending.
type boundary struct {
	outs, slicedIn []graph.NodeID
}

// boundary returns n's boundary in g, deriving it on first use within the
// current region.
func (c *collapser) boundary(g *graph.Graph, n *ftree.Node) *boundary {
	if b, ok := c.bnd[n]; ok {
		return b
	}
	b := &boundary{outs: g.Outs(n.T.S)}
	b.slicedIn, _ = n.T.Inputs(g)
	if c.bnd == nil {
		c.bnd = make(map[*ftree.Node]*boundary)
	}
	c.bnd[n] = b
	return b
}

// memoLimit bounds the region memo; the tables reset when it is reached.
// splitLimit bounds the split table the same way.
const (
	memoLimit  = 4096
	splitLimit = 4 * memoLimit
)

func appendI32(b []byte, x int32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func (c *collapser) specIdent(s *ops.Spec) int32 {
	if c.specID == nil {
		c.specID = make(map[*ops.Spec]int32)
	}
	id, ok := c.specID[s]
	if !ok {
		id = int32(len(c.specID))
		c.specID[s] = id
	}
	return id
}

// regionMemoKey folds the full accounting-relevant content of an enabled
// F-Tree node into c.keyBuf. Returns false when a member is not an
// ops.Spec (the error path re-derives it without the memo).
func (c *collapser) regionMemoKey(g *graph.Graph, n *ftree.Node) bool {
	bd := c.boundary(g, n)
	b := appendI32(c.keyBuf, int32(n.N))
	b = appendI32(b, int32(len(n.T.S)))
	outs := bd.outs
	for _, v := range n.T.S {
		node := g.Node(v)
		spec, ok := node.Op.(*ops.Spec)
		if !ok {
			return false
		}
		b = appendI32(b, int32(v))
		b = appendI32(b, int32(n.T.Choice[v]))
		b = appendI32(b, c.specIdent(spec))
		b = appendI32(b, int32(len(node.Ins)))
		for _, in := range node.Ins {
			b = appendI32(b, int32(in))
		}
		// outs is an ascending subset of the ascending members.
		if len(outs) > 0 && outs[0] == v {
			b = append(b, 1)
			outs = outs[1:]
		} else {
			b = append(b, 0)
		}
	}
	b = appendI32(b, int32(len(bd.slicedIn)))
	for _, u := range bd.slicedIn {
		spec, ok := g.Node(u).Op.(*ops.Spec)
		if !ok {
			return false
		}
		b = appendI32(b, int32(u))
		b = appendI32(b, int32(n.T.Choice[u]))
		b = appendI32(b, c.specIdent(spec))
	}
	for _, child := range directEnabledChildren(n) {
		b = append(b, 0xfe) // nesting tag
		c.keyBuf = b
		if !c.regionMemoKey(g, child) {
			return false
		}
		b = c.keyBuf
	}
	c.keyBuf = b
	return true
}

// peakOnly prices an order through the shared scratch when available.
func (c *collapser) peakOnly(g *graph.Graph, order sched.Schedule) int64 {
	if c.ss != nil {
		return c.ss.PeakOnly(g, order)
	}
	return sched.PeakOnly(g, order)
}

// Collapse returns the evaluation graph of (g, t): every outermost enabled
// F-Tree region replaced by one RegionOp node, nested enabled regions
// folded recursively into their parent's accounting. It also returns a map
// from region key (see regionKey) to the created node. With no enabled
// region there is nothing to collapse: the evaluation graph is g itself,
// shared read-only, and the map is nil. Otherwise it is a fresh clone of
// g in which graph.Contract replaces each region, with no whole-graph
// sort.
func (c *collapser) Collapse(g *graph.Graph, t *ftree.Tree) (*graph.Graph, map[string]graph.NodeID, error) {
	var outer []*ftree.Node
	if t != nil {
		for _, n := range t.EnabledNodes() {
			if !n.HasEnabledAncestor() {
				outer = append(outer, n)
			}
		}
	}
	if len(outer) == 0 {
		return g, nil, nil
	}
	eg := g.Clone()
	regions := make(map[string]graph.NodeID, len(outer))
	for _, n := range outer {
		clear(c.bnd)
		op, err := c.memoRegionOp(g, n)
		if err != nil {
			return nil, nil, err
		}
		id, err := eg.Contract(n.T.S, op)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: region at %d: %w", ErrCollapse, n.T.S[0], err)
		}
		regions[regionKey(n.T.S)] = id
	}
	return eg, regions, nil
}

// memoRegionOp returns the collapsed accounting of an outermost enabled
// region, reusing a previously priced identical region when the memo key
// matches. Errors are never cached: a failing region re-validates on every
// collapse, so recovery after a repairing rewrite is immediate.
func (c *collapser) memoRegionOp(g *graph.Graph, n *ftree.Node) (*RegionOp, error) {
	// Reset before key construction so every key in one memo generation is
	// built from one specID numbering (mixing generations could alias two
	// different regions onto one key).
	if len(c.memo) >= memoLimit {
		c.memo = nil
		c.specID = nil
	}
	c.keyBuf = c.keyBuf[:0]
	if !c.regionMemoKey(g, n) {
		return c.regionOp(g, n, nil)
	}
	key := string(c.keyBuf)
	if op, ok := c.memo[key]; ok {
		return op, nil
	}
	op, err := c.regionOp(g, n, nil)
	if err != nil {
		return nil, err
	}
	if c.memo == nil {
		c.memo = make(map[string]*RegionOp)
	}
	c.memo[key] = op
	return op, nil
}

// regionKey canonically identifies a region by its member set.
func regionKey(s graph.Set) string {
	b := make([]byte, 0, len(s)*4)
	for _, id := range s {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// regionOp computes the collapsed accounting of an enabled F-Tree node.
// overrides supplies already-split member specs when recursing into nested
// regions (nil at the outermost level).
func (c *collapser) regionOp(g *graph.Graph, n *ftree.Node, overrides map[graph.NodeID]*ops.Spec) (*RegionOp, error) {
	if overrides == nil {
		// Dormant candidates may have been invalidated by graph rewrites
		// applied since the F-Tree was built; re-check before collapsing.
		if err := n.T.ValidateOn(g); err != nil {
			return nil, err
		}
	}
	// Specs of members at this nesting level.
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
	// Split every member along its chosen axis.
	part := make(map[graph.NodeID]*ops.Spec, len(n.T.S))
	for _, v := range n.T.S {
		spec, err := base(v)
		if err != nil {
			return nil, err
		}
		ps, err := c.split(spec, n.T.Choice[v], n.N)
		if err != nil {
			return nil, fmt.Errorf("%w: region split: %w", ErrCollapse, err)
		}
		part[v] = ps
	}
	// Build the one-part graph: members with split specs plus placeholder
	// inputs for sliced region inputs (their per-part slice is resident).
	bd := c.boundary(g, n)
	pg := graph.New()
	idMap := make(map[graph.NodeID]graph.NodeID, len(n.T.S)+len(bd.slicedIn))
	var sliceLat float64
	for _, u := range bd.slicedIn {
		spec, err := base(u)
		if err != nil {
			// Inputs outside overrides at nested levels: use the graph op.
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
	// Members in g's topological order: it fixes pg's IDs, and so the ties
	// of the part schedule. idMap holds exactly the members placed so far
	// and the sliced inputs, so it filters a member's inputs to the ones
	// the part graph carries.
	for _, v := range g.TopoWithin(n.T.S) {
		var ins []graph.NodeID
		for _, in := range g.Node(v).Ins {
			if m, ok := idMap[in]; ok {
				ins = append(ins, m)
			}
		}
		idMap[v] = pg.Add(part[v], ins...)
	}
	// Reduce-merged outputs accumulate eagerly: each part's partial sum is
	// added into a full-size accumulator and freed. Model the accumulator
	// as a resident placeholder and the accumulation Add inside the part,
	// so the partial's lifetime ends promptly.
	for _, v := range bd.outs {
		if n.T.Choice[v] >= 0 {
			continue
		}
		ps := part[v]
		acc := pg.Add(ops.NewInput(ps.OutShape(), ps.DType()))
		pg.Add(ops.NewAdd(ps.OutShape(), ps.OutShape(), ps.DType()), acc, idMap[v])
	}
	// Fold nested enabled regions (direct enabled descendants without an
	// intermediate enabled node).
	for _, child := range directEnabledChildren(n) {
		childOverrides := make(map[graph.NodeID]*ops.Spec, len(child.T.S))
		for _, v := range child.T.S {
			childOverrides[v] = part[v]
		}
		cop, err := c.regionOp(g, child, childOverrides)
		if err != nil {
			return nil, err
		}
		// Re-map member IDs into pg's ID space for replacement.
		ids := make([]graph.NodeID, len(child.T.S))
		for i, v := range child.T.S {
			ids[i] = idMap[v]
		}
		if _, err := pg.Contract(graph.NewSet(ids...), cop); err != nil {
			return nil, fmt.Errorf("%w: nested region at %d: %w", ErrCollapse, child.T.S[0], err)
		}
	}
	// Accounting over the one-part graph.
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
	// Output merging: concat-merged outs reach full size (their per-part
	// pieces accumulate in the merged buffer); reduce-merged accumulators
	// are already inside the part graph's accounting.
	var concatOut, reduceOut int64
	var mergeLat float64
	for _, v := range bd.outs {
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
	// While the last part runs, (n-1)/n of the concat outputs have already
	// accumulated alongside the part's live set.
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

func directEnabledChildren(n *ftree.Node) []*ftree.Node {
	var out []*ftree.Node
	var rec func(*ftree.Node)
	rec = func(m *ftree.Node) {
		for _, c := range m.Children {
			if c.Enabled() {
				out = append(out, c)
			} else {
				rec(c)
			}
		}
	}
	rec(n)
	return out
}
