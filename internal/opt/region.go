// Package opt implements M-State and M-Optimizer (§3, §6): the unified
// search over graph transformations, F-Tree mutations, and scheduling.
// Enabled F-Tree regions are never materialized during search — each is
// collapsed into a single RegionOp node whose memory and latency are
// computed analytically from one split part (the F-Tree's whole point:
// keeping complexity low, §4.3).
package opt

import (
	"fmt"
	"slices"

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
// fails loudly per candidate in replaceRegion's cycle check.
type collapser struct {
	model *cost.Model
	sc    *sched.Scheduler
	ss    *sched.Scratch
	// gp, when set, recycles discarded graph shells into the evaluation
	// graph clone (see graphPool).
	gp *graphPool

	memo   map[string]*RegionOp
	specID map[*ops.Spec]int32
	keyBuf []byte
}

// memoLimit bounds the region memo; the tables reset when it is reached.
const memoLimit = 4096

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
	b := appendI32(c.keyBuf, int32(n.N))
	outs := g.Outs(n.T.S)
	b = appendI32(b, int32(len(n.T.S)))
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
		if outs.Has(v) {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	slicedIn, _ := n.T.Inputs(g)
	b = appendI32(b, int32(len(slicedIn)))
	for _, u := range slicedIn {
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
// from region key (see regionKey) to the created node.
func (c *collapser) Collapse(g *graph.Graph, t *ftree.Tree) (*graph.Graph, map[string]graph.NodeID, error) {
	var eg *graph.Graph
	if c.gp != nil {
		eg = c.gp.clone(g)
	} else {
		eg = g.Clone()
	}
	regions := make(map[string]graph.NodeID)
	var outer []*ftree.Node
	if t != nil {
		for _, n := range t.EnabledNodes() {
			if !n.HasEnabledAncestor() {
				outer = append(outer, n)
			}
		}
	}
	for _, n := range outer {
		op, err := c.memoRegionOp(g, n)
		if err != nil {
			c.recycle(eg)
			return nil, nil, err
		}
		id, err := replaceRegion(eg, n.T.S, op)
		if err != nil {
			c.recycle(eg)
			return nil, nil, err
		}
		regions[regionKey(n.T.S)] = id
	}
	return eg, regions, nil
}

// recycle returns a failed collapse's half-built clone to the pool; no
// caller ever sees it.
func (c *collapser) recycle(eg *graph.Graph) {
	if c.gp != nil {
		c.gp.put(eg)
	}
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
		ps, err := spec.SplitAxis(n.T.Choice[v], n.N)
		if err != nil {
			return nil, fmt.Errorf("%w: region split: %w", ErrCollapse, err)
		}
		part[v] = ps
	}
	// Build the one-part graph: members with split specs plus placeholder
	// inputs for sliced region inputs (their per-part slice is resident).
	pg := graph.New()
	idMap := make(map[graph.NodeID]graph.NodeID, len(n.T.S))
	var sliceLat float64
	slicedIn, _ := n.T.Inputs(g)
	for _, u := range slicedIn {
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
	for _, v := range g.TopoWithin(n.T.S) {
		var ins []graph.NodeID
		for _, in := range g.Node(v).Ins {
			if m, ok := idMap[in]; ok && (n.T.S.Has(in) || slices.Contains(slicedIn, in)) {
				ins = append(ins, m)
			}
		}
		idMap[v] = pg.Add(part[v], ins...)
	}
	// Reduce-merged outputs accumulate eagerly: each part's partial sum is
	// added into a full-size accumulator and freed. Model the accumulator
	// as a resident placeholder and the accumulation Add inside the part,
	// so the partial's lifetime ends promptly.
	outs := g.Outs(n.T.S)
	for _, v := range outs {
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
		if _, err := replaceRegion(pg, graph.NewSet(ids...), cop); err != nil {
			return nil, err
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

// replaceRegion substitutes the member set s of eg with one region node.
// Consumers of any region output are rewired to the region node; the
// region node consumes every external input of s.
func replaceRegion(eg *graph.Graph, s graph.Set, op *RegionOp) (graph.NodeID, error) {
	id := eg.Add(op, eg.Inps(s)...)
	for _, v := range eg.Outs(s) {
		// Rewire only consumers OUTSIDE the region; internal edges vanish
		// with the members below.
		for _, c := range eg.Suc(v) {
			if c != id && !s.Has(c) {
				eg.ReplaceInput(c, v, id)
			}
		}
	}
	// Collapsing the region to one node requires that no other path runs
	// from its outputs back to its inputs (possible when two mutually
	// interleaved regions are enabled); detect and reject.
	if _, err := eg.TopoE(); err != nil {
		return graph.Invalid, fmt.Errorf("%w: region at %d: %w", ErrCollapse, s[0], err)
	}
	// Remove members (reverse topo within s so consumer checks pass).
	members := eg.TopoWithin(s)
	for i := len(members) - 1; i >= 0; i-- {
		if err := eg.Remove(members[i]); err != nil {
			return graph.Invalid, fmt.Errorf("%w: %w", ErrCollapse, err)
		}
	}
	return id, nil
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
