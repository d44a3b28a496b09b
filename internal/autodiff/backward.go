// Package autodiff extends a forward computation graph with its reverse-
// mode backward pass, producing the training graphs all experiments run
// on. Gradients flow only where a Param is reachable; each Param's
// gradient ends in an ApplySGD update so gradient lifetimes close
// realistically.
package autodiff

import (
	"fmt"
	"strings"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// Backward appends the backward pass for scalar loss node `loss` to g and
// returns the gradient node of every Param (keyed by the Param's ID).
// ApplySGD update nodes are appended so gradients are consumed.
func Backward(g *graph.Graph, loss graph.NodeID) (map[graph.NodeID]graph.NodeID, error) {
	if !g.Has(loss) {
		return nil, fmt.Errorf("autodiff: loss node %d missing", loss)
	}
	topo := g.Topo()
	// requiresGrad: Params and anything downstream of one.
	req := make(map[graph.NodeID]bool, len(topo))
	for _, v := range topo {
		n := g.Node(v)
		if n.Op.Kind() == ops.KindParam {
			req[v] = true
			continue
		}
		for _, in := range n.Ins {
			if req[in] {
				req[v] = true
				break
			}
		}
	}
	if !req[loss] {
		return nil, fmt.Errorf("autodiff: loss does not depend on any Param")
	}
	// Restrict to loss and its ancestors.
	anc := graph.Union(g.Anc(loss), graph.NewSet(loss))

	// grads accumulates contributions per node; summed lazily.
	pending := make(map[graph.NodeID][]graph.NodeID)
	gradOf := func(v graph.NodeID) graph.NodeID {
		parts := pending[v]
		if len(parts) == 0 {
			return graph.Invalid
		}
		acc := parts[0]
		for _, p := range parts[1:] {
			sh := g.Node(acc).Op.OutShape()
			acc = g.Add(ops.NewAdd(sh, sh, g.Node(acc).Op.DType()), acc, p)
		}
		pending[v] = []graph.NodeID{acc}
		return acc
	}

	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if !anc.Has(v) || !req[v] {
			continue
		}
		n := g.Node(v)
		kind := n.Op.Kind()
		if ops.IsLeaf(kind) {
			continue
		}
		var dy graph.NodeID
		if v == loss {
			dy = graph.Invalid // loss VJPs take no upstream gradient
		} else {
			dy = gradOf(v)
			if dy == graph.Invalid {
				continue // no gradient path through this node
			}
		}
		contribs, err := vjp(g, v, dy)
		if err != nil {
			return nil, err
		}
		for idx, gr := range contribs {
			if gr == graph.Invalid {
				continue
			}
			in := n.Ins[idx]
			if !req[in] {
				continue
			}
			pending[in] = append(pending[in], gr)
		}
	}

	out := make(map[graph.NodeID]graph.NodeID)
	for _, v := range topo {
		if g.Node(v).Op.Kind() != ops.KindParam {
			continue
		}
		gw := gradOf(v)
		if gw == graph.Invalid {
			continue
		}
		out[v] = gw
		sh := g.Node(v).Op.OutShape()
		g.AddNamed(g.Node(v).Name+".sgd",
			ops.NewApplySGD(sh, g.Node(gw).Op.OutShape(), g.Node(v).Op.DType()), v, gw)
	}
	return out, nil
}

// vjp emits the gradient contribution of node v to each of its inputs.
// Returned slice is indexed by input slot; graph.Invalid marks "no grad".
func vjp(g *graph.Graph, v, dy graph.NodeID) ([]graph.NodeID, error) {
	n := g.Node(v)
	spec, ok := n.Op.(*ops.Spec)
	if !ok {
		return nil, fmt.Errorf("autodiff: node %d is not an ops.Spec", v)
	}
	dt := spec.DType()
	kind := spec.Kind()
	ins := n.Ins
	none := make([]graph.NodeID, len(ins))
	for i := range none {
		none[i] = graph.Invalid
	}
	dyShape := tensor.Shape(nil)
	if dy != graph.Invalid {
		dyShape = g.Node(dy).Op.OutShape()
	} else if kind != ops.KindCrossEnt {
		return nil, fmt.Errorf("autodiff: loss must be a CrossEntropy node, got %q", kind)
	}

	switch kind {
	case ops.KindMatmul, ops.KindBatchMM:
		a, b := spec.InShape(0), spec.InShape(1)
		batch := kind == ops.KindBatchMM
		mk := func(x, y tensor.Shape, tx, ty bool, i0, i1 graph.NodeID) graph.NodeID {
			if batch {
				return g.Add(ops.NewBatchMatmul(x, y, tx, ty, dt), i0, i1)
			}
			return g.Add(ops.NewMatmul(x, y, tx, ty, dt), i0, i1)
		}
		switch spec.Attr() {
		case "NN": // C = A B
			none[0] = mk(dyShape, b, false, true, dy, ins[1])
			none[1] = mk(a, dyShape, true, false, ins[0], dy)
		case "NT": // C = A B^T
			none[0] = mk(dyShape, b, false, false, dy, ins[1])
			none[1] = mk(dyShape, a, true, false, dy, ins[0])
		case "TN": // C = A^T B
			none[0] = mk(b, dyShape, false, true, ins[1], dy)
			none[1] = mk(a, dyShape, false, false, ins[0], dy)
		default:
			return nil, fmt.Errorf("autodiff: unsupported matmul attr %q", spec.Attr())
		}
	case "Linear":
		x, w := spec.InShape(0), spec.InShape(1)
		switch spec.Attr() {
		case "N": // y = x W
			none[0] = g.Add(ops.NewLinear(dyShape, w, true, dt), dy, ins[1])
			none[1] = g.Add(ops.NewLinearBwdW(x, dyShape, dt), ins[0], dy)
		case "T": // y = x W^T
			none[0] = g.Add(ops.NewLinear(dyShape, w, false, dt), dy, ins[1])
			// dW^T accumulates as dy^T x -> [n, k]: swap operands.
			none[1] = g.Add(ops.NewLinearBwdW(dyShape, x, dt), dy, ins[0])
		default:
			return nil, fmt.Errorf("autodiff: unsupported linear attr %q", spec.Attr())
		}
	case "SplitHeads":
		none[0] = g.Add(ops.NewMergeHeads(dyShape, dt), dy)
	case "MergeHeads":
		heads := spec.InShape(0).Dim(2)
		none[0] = g.Add(ops.NewSplitHeads(dyShape, heads, dt), dy)
	case ops.KindConv2d:
		var stride, pad int
		fmt.Sscanf(spec.Attr(), "s%dp%d", &stride, &pad)
		x, w := spec.InShape(0), spec.InShape(1)
		none[0] = g.Add(ops.NewConvBwdData(dyShape, w, x, stride, pad, dt), dy, ins[1])
		none[1] = g.Add(ops.NewConvBwdFilter(x, dyShape, w, stride, pad, dt), ins[0], dy)
	case ops.KindPool2d:
		var pk string
		var k, s int
		parts := strings.SplitN(spec.Attr(), ",", 2)
		pk = parts[0]
		fmt.Sscanf(parts[1], "k%ds%d", &k, &s)
		none[0] = g.Add(ops.NewPoolBwd(spec.InShape(0), dyShape, pk, k, s, dt), ins[0], dy)
	case "Upsample2d":
		var f int
		fmt.Sscanf(spec.Attr(), "f%d", &f)
		none[0] = g.Add(ops.NewUpsampleBwd(spec.InShape(0), dyShape, f, dt), dy)
	case "ReLU", "GELU", "Tanh", "Sigmoid", "Dropout", "Scale":
		none[0] = g.Add(ops.NewEltwiseBwd(kind+"Bwd", spec.InShape(0), dyShape, dt, 2), ins[0], dy)
	case "Add":
		none[0] = dy
		none[1] = dy
	case "Mul":
		none[0] = g.Add(ops.NewMul(spec.InShape(1), dyShape, dt), ins[1], dy)
		none[1] = g.Add(ops.NewMul(spec.InShape(0), dyShape, dt), ins[0], dy)
	case "BiasAdd":
		none[0] = dy
		none[1] = g.Add(ops.NewBiasBwd(dyShape, dt), dy)
	case ops.KindSoftmax:
		var axis int
		fmt.Sscanf(spec.Attr(), "a%d", &axis)
		none[0] = g.Add(ops.NewSoftmaxBwd(spec.OutShape(), dyShape, axis, dt), v, dy)
	case ops.KindLayerNorm:
		x := spec.InShape(0)
		none[0] = g.Add(ops.NewLayerNormBwdX(x, dyShape, spec.InShape(1), dt), ins[0], dy, ins[1])
		none[1] = g.Add(ops.NewLayerNormBwdParams(x, dyShape, dt), ins[0], dy)
		none[2] = g.Add(ops.NewBiasBwd(dyShape, dt), dy)
	case "BatchNorm2d":
		x := spec.InShape(0)
		none[0] = g.Add(ops.NewBatchNorm2dBwdX(x, dyShape, dt), ins[0], dy)
		none[1] = g.Add(ops.NewBatchNorm2dBwdP(x, dyShape, dt), ins[0], dy)
	case ops.KindReduce:
		parts := strings.SplitN(spec.Attr(), ",", 2)
		var axis int
		fmt.Sscanf(parts[1], "a%d", &axis)
		x := spec.InShape(0)
		none[0] = g.Add(ops.NewBroadcast(dyShape, axis, x.Dim(axis), dt), dy)
	case ops.KindSlice:
		dim, start, _, _ := ops.ParseSliceAttr(spec)
		x := spec.InShape(0)
		none[0] = g.Add(ops.NewPad(dyShape, dim, start, x.Dim(dim), dt), dy)
	case ops.KindConcat:
		var dim, cnt int
		fmt.Sscanf(spec.Attr(), "d%d,n%d", &dim, &cnt)
		off := 0
		for i := range ins {
			l := spec.InShape(i).Dim(dim)
			none[i] = g.Add(ops.NewSlice(dyShape, dim, off, l, dt), dy)
			off += l
		}
	case ops.KindTranspose:
		perm := parsePerm(spec.Attr())
		inv := make([]int, len(perm))
		for i, p := range perm {
			inv[p] = i
		}
		none[0] = g.Add(ops.NewTranspose(dyShape, inv, dt), dy)
	case ops.KindReshape:
		none[0] = g.Add(ops.NewReshape(dyShape, spec.InShape(0), dt), dy)
	case ops.KindEmbedding:
		none[1] = g.Add(ops.NewEmbeddingBwd(spec.InShape(0), dyShape, spec.InShape(1), dt), ins[0], dy)
	case ops.KindCrossEnt:
		none[0] = g.Add(ops.NewCrossEntropyBwd(spec.InShape(0), spec.InShape(1), dt), ins[0], ins[1])
	default:
		return nil, fmt.Errorf("autodiff: no VJP for operator %q", kind)
	}
	return none, nil
}

func parsePerm(attr string) []int {
	attr = strings.TrimPrefix(attr, "p[")
	attr = strings.TrimSuffix(attr, "]")
	var perm []int
	for _, f := range strings.Fields(attr) {
		var x int
		fmt.Sscanf(f, "%d", &x)
		perm = append(perm, x)
	}
	return perm
}
