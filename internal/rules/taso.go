package rules

import (
	"fmt"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// MergeMatmulsRule is the Aggregation Transformation of Fig. 1(a): two
// Matmuls sharing the same left operand are fused into a single Matmul
// against the concatenated weights, followed by Slices. It trades a larger
// temporary (better hardware utilization, lower latency) for memory.
type MergeMatmulsRule struct{}

// Name implements Rule.
func (MergeMatmulsRule) Name() string { return "MergeMatmuls" }

// Apply implements Rule.
func (MergeMatmulsRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	for _, x := range g.NodeIDs() {
		if len(out) >= ctx.maxSites() {
			break
		}
		// Find two NN-Matmul consumers using x as their left operand.
		var mms []graph.NodeID
		for _, c := range g.Suc(x) {
			n := g.Node(c)
			spec, ok := n.Op.(*ops.Spec)
			if !ok || spec.Kind() != ops.KindMatmul || spec.Attr() != "NN" {
				continue
			}
			if len(n.Ins) == 2 && n.Ins[0] == x {
				mms = append(mms, c)
			}
		}
		if len(mms) < 2 {
			continue
		}
		m1, m2 := mms[0], mms[1]
		if ctx.blocked(x, m1, m2) {
			continue
		}
		w1 := g.Node(m1).Ins[1]
		w2 := g.Node(m2).Ins[1]
		if w1 == w2 || ctx.blocked(w1, w2) {
			continue
		}
		s1 := g.Node(m1).Op.(*ops.Spec)
		s2 := g.Node(m2).Op.(*ops.Spec)
		if s1.DType() != s2.DType() {
			continue
		}
		wa, wb := s1.InShape(1), s2.InShape(1)
		n1, n2 := wa.Dim(2), wb.Dim(2)
		dt := s1.DType()
		ng := g.Clone()
		wc := ng.Add(ops.NewConcat([]tensor.Shape{wa, wb}, 2, dt), w1, w2)
		xs := s1.InShape(0)
		mm := ng.Add(ops.NewMatmul(xs, tensor.S(wa.Dim(1), n1+n2), false, false, dt), x, wc)
		mmShape := tensor.S(xs.Dim(1), n1+n2)
		o1 := ng.Add(ops.NewSlice(mmShape, 2, 0, n1, dt), mm)
		o2 := ng.Add(ops.NewSlice(mmShape, 2, n1, n2, dt), mm)
		ng.RedirectConsumers(m1, o1)
		ng.RedirectConsumers(m2, o2)
		if err := ng.Remove(m1); err != nil {
			continue
		}
		if err := ng.Remove(m2); err != nil {
			continue
		}
		out = append(out, Application{ng, []graph.NodeID{x, m1, m2, w1, w2}, "MergeMatmuls"})
	}
	return out
}

// SliceConcatElimRule is an Interim Transformation: a Concat whose inputs
// are contiguous slices of one tensor, in order, is the tensor itself.
// It cleans up compositions left behind by aggregation and fission.
type SliceConcatElimRule struct{}

// Name implements Rule.
func (SliceConcatElimRule) Name() string { return "SliceConcatElim" }

// Apply implements Rule.
func (SliceConcatElimRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	for _, c := range g.NodeIDs() {
		if len(out) >= ctx.maxSites() {
			break
		}
		n := g.Node(c)
		spec, ok := n.Op.(*ops.Spec)
		if !ok || spec.Kind() != ops.KindConcat || len(n.Ins) < 2 {
			continue
		}
		var concatDim, concatN int
		if _, err := fmt.Sscanf(spec.Attr(), "d%d,n%d", &concatDim, &concatN); err != nil {
			continue
		}
		// All inputs must be slices of one source, contiguous and in order
		// along the concat dimension.
		var src graph.NodeID = graph.Invalid
		offset := 0
		valid := true
		for _, in := range n.Ins {
			sn := g.Node(in)
			ss, ok := sn.Op.(*ops.Spec)
			if !ok || len(sn.Ins) != 1 {
				valid = false
				break
			}
			dim, start, length, ok := ops.ParseSliceAttr(ss)
			if !ok || dim != concatDim || start != offset {
				valid = false
				break
			}
			offset += length
			if src == graph.Invalid {
				src = sn.Ins[0]
			} else if sn.Ins[0] != src {
				valid = false
				break
			}
		}
		if !valid || src == graph.Invalid {
			continue
		}
		if !g.Node(src).Op.OutShape().Equal(spec.OutShape()) {
			continue
		}
		if ctx.blocked(append([]graph.NodeID{c, src}, n.Ins...)...) {
			continue
		}
		ng := g.Clone()
		ng.RedirectConsumers(c, src)
		if err := ng.Remove(c); err != nil {
			continue
		}
		// Anchor liveness at the ORIGINAL outputs (with c replaced by src)
		// so the now-unconsumed slices do not masquerade as outputs.
		var keep []graph.NodeID
		for _, o := range g.Outputs() {
			if o == c {
				o = src
			}
			if ng.Has(o) {
				keep = append(keep, o)
			}
		}
		ng.RemoveDead(keep)
		out = append(out, Application{ng, append([]graph.NodeID{c, src}, n.Ins...), "SliceConcatElim"})
	}
	return out
}

// MergeConvsRule is the convolutional Aggregation Transformation of
// Fig. 1(a)'s right-hand example: two Conv2d operators sharing the same
// input and hyper-parameters fuse into a single convolution over the
// concatenated filters, followed by channel Slices.
type MergeConvsRule struct{}

// Name implements Rule.
func (MergeConvsRule) Name() string { return "MergeConvs" }

// Apply implements Rule.
func (MergeConvsRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	for _, x := range g.NodeIDs() {
		if len(out) >= ctx.maxSites() {
			break
		}
		var convs []graph.NodeID
		for _, c := range g.Suc(x) {
			n := g.Node(c)
			spec, ok := n.Op.(*ops.Spec)
			if !ok || spec.Kind() != ops.KindConv2d {
				continue
			}
			if len(n.Ins) == 2 && n.Ins[0] == x {
				convs = append(convs, c)
			}
		}
		if len(convs) < 2 {
			continue
		}
		c1, c2 := convs[0], convs[1]
		s1 := g.Node(c1).Op.(*ops.Spec)
		s2 := g.Node(c2).Op.(*ops.Spec)
		if s1.Attr() != s2.Attr() || s1.DType() != s2.DType() {
			continue
		}
		w1sh, w2sh := s1.InShape(1), s2.InShape(1)
		// Kernels must agree except in output channels.
		if w1sh[1] != w2sh[1] || w1sh[2] != w2sh[2] || w1sh[3] != w2sh[3] {
			continue
		}
		w1, w2 := g.Node(c1).Ins[1], g.Node(c2).Ins[1]
		if w1 == w2 || ctx.blocked(x, c1, c2, w1, w2) {
			continue
		}
		stride, pad := 0, 0
		fmt.Sscanf(s1.Attr(), "s%dp%d", &stride, &pad)
		dt := s1.DType()
		k1, k2 := w1sh.Dim(1), w2sh.Dim(1)
		ng := g.Clone()
		wc := ng.Add(ops.NewConcat([]tensor.Shape{w1sh, w2sh}, 1, dt), w1, w2)
		big := ng.Add(ops.NewConv2d(s1.InShape(0), ng.Node(wc).Op.OutShape(), stride, pad, dt), x, wc)
		bigSh := ng.Node(big).Op.OutShape()
		o1 := ng.Add(ops.NewSlice(bigSh, 2, 0, k1, dt), big)
		o2 := ng.Add(ops.NewSlice(bigSh, 2, k1, k2, dt), big)
		ng.RedirectConsumers(c1, o1)
		ng.RedirectConsumers(c2, o2)
		if err := ng.Remove(c1); err != nil {
			continue
		}
		if err := ng.Remove(c2); err != nil {
			continue
		}
		out = append(out, Application{ng, []graph.NodeID{x, c1, c2, w1, w2}, "MergeConvs"})
	}
	return out
}

// AddReassocRule is the Interim Transformation of Fig. 1(b): it rotates an
// Add tree, Add(Add(a, b), c) -> Add(a, Add(b, c)), exposing different
// aggregation and fission opportunities without changing semantics.
type AddReassocRule struct{}

// Name implements Rule.
func (AddReassocRule) Name() string { return "AddReassoc" }

// Apply implements Rule.
func (AddReassocRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	for _, top := range g.NodeIDs() {
		if len(out) >= ctx.maxSites() {
			break
		}
		tn := g.Node(top)
		if tn.Op.Kind() != "Add" || len(tn.Ins) != 2 {
			continue
		}
		inner := tn.Ins[0]
		c := tn.Ins[1]
		innerN := g.Node(inner)
		if innerN.Op.Kind() != "Add" || len(innerN.Ins) != 2 {
			continue
		}
		// The inner Add must have no other consumers, or rotating it would
		// duplicate work.
		if g.NumConsumers(inner) != 1 {
			continue
		}
		a, b := innerN.Ins[0], innerN.Ins[1]
		if ctx.blocked(top, inner, a, b, c) {
			continue
		}
		spec := tn.Op.(*ops.Spec)
		sh, dt := spec.OutShape(), spec.DType()
		ng := g.Clone()
		right := ng.Add(ops.NewAdd(sh, sh, dt), b, c)
		rot := ng.Add(ops.NewAdd(sh, sh, dt), a, right)
		ng.RedirectConsumers(top, rot)
		if err := ng.Remove(top); err != nil {
			continue
		}
		if err := ng.Remove(inner); err != nil {
			continue
		}
		out = append(out, Application{ng, []graph.NodeID{top, inner, a, b, c}, "AddReassoc"})
	}
	return out
}
