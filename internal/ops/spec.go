// Package ops is the operator catalog: every DNN operator MAGIS
// manipulates, with shape inference, FLOP/byte accounting for the cost
// model, dimension links for Dimension-Graph construction (§4.1), and axis
// splitting for Fission Transformation (§4.2).
//
// All operators share one immutable descriptor type, Spec. Constructors
// (NewMatmul, NewConv2d, ...) validate input shapes and fill in the
// dimension links; fission derives split operators generically through
// SplitAxis, which divides a chosen output dimension or reduce axis and
// shrinks every linked input dimension.
package ops

import (
	"fmt"
	"strings"
	"sync/atomic"

	"magis/internal/tensor"
)

// DimLink declares that input dimension In (1-based) and output axis Out
// correspond to the same spatial axis. Out > 0 names an output dimension;
// Out < 0 names reduce axis -Out of the operator's computation. These links
// are exactly the E(D) edges of the paper's Dimension Graph.
type DimLink struct {
	In  int // 1-based input dimension
	Out int // 1-based output dimension, or negative reduce axis
}

// Spec is the single concrete operator type. It is immutable after
// construction; transformations create new Specs.
type Spec struct {
	kind   string
	attr   string
	ins    []tensor.Shape
	out    tensor.Shape
	dt     tensor.DType
	reduce []int       // extent of each reduce axis (index i = axis -(i+1))
	links  [][]DimLink // per input
	flops  func(s *Spec) float64

	// Memoized derived strings. The descriptor is immutable, but AttrKey
	// and SigKey sit on the optimizer's hottest paths (hashing and the
	// latency cache), so they are built once on first use. Concurrent first
	// uses race benignly: both compute the same value.
	akey atomic.Pointer[string]
	skey atomic.Pointer[string]
	// lat memoizes the latest pricing of the descriptor (see Priced).
	lat atomic.Pointer[pricing]
}

// pricing is one latency a pricer gave a Spec.
type pricing struct {
	by  any
	sec float64
}

// Priced returns the latency pricer by memoized on s with SetPriced, if
// it is the latest one memoized. A pricer is any comparable identity, in
// practice a cost model; the memo references the pricer, never the
// reverse, so memoizing pins no Spec.
func (s *Spec) Priced(by any) (sec float64, ok bool) {
	if p := s.lat.Load(); p != nil && p.by == by {
		return p.sec, true
	}
	return 0, false
}

// SetPriced memoizes sec as pricer by's latency of s, replacing any
// earlier pricing. Concurrent calls race benignly, like the key memos.
func (s *Spec) SetPriced(by any, sec float64) { s.lat.Store(&pricing{by, sec}) }

// Kind returns the operator name ("Matmul", "Conv2d", ...).
func (s *Spec) Kind() string { return s.kind }

// OutShape returns the output tensor shape.
func (s *Spec) OutShape() tensor.Shape { return s.out }

// DType returns the output element type.
func (s *Spec) DType() tensor.DType { return s.dt }

// AttrKey distinguishes operators of the same kind with different
// semantics; it folds in attributes, input shapes, and reduce extents.
// The string is memoized on the descriptor.
func (s *Spec) AttrKey() string {
	if p := s.akey.Load(); p != nil {
		return *p
	}
	var b strings.Builder
	b.WriteString(s.attr)
	for _, in := range s.ins {
		b.WriteString(in.String())
	}
	if len(s.reduce) > 0 {
		fmt.Fprintf(&b, "r%v", s.reduce)
	}
	k := b.String()
	s.akey.Store(&k)
	return k
}

// SigKey returns the full operator signature — kind, attributes, input
// shapes, output shape, and element type — memoized on the descriptor. Two
// Specs with equal SigKeys have identical cost and hashing behaviour; the
// latency cache keys on it.
func (s *Spec) SigKey() string {
	if p := s.skey.Load(); p != nil {
		return *p
	}
	k := s.kind + "|" + s.AttrKey() + "|" + s.out.String() + "|" + s.dt.String()
	s.skey.Store(&k)
	return k
}

// Attr returns the raw attribute string (without shape suffixes).
func (s *Spec) Attr() string { return s.attr }

// NumIns returns the number of input tensors.
func (s *Spec) NumIns() int { return len(s.ins) }

// InShape returns the shape of input i.
func (s *Spec) InShape(i int) tensor.Shape { return s.ins[i] }

// NumReduceAxes returns the number of reduce axes in the computation.
func (s *Spec) NumReduceAxes() int { return len(s.reduce) }

// ReduceLen returns the extent of reduce axis -axis (axis must be < 0).
func (s *Spec) ReduceLen(axis int) int {
	if axis >= 0 || -axis > len(s.reduce) {
		panic(fmt.Sprintf("ops: bad reduce axis %d", axis))
	}
	return s.reduce[-axis-1]
}

// DimLinks returns the dimension links of input i.
func (s *Spec) DimLinks(i int) []DimLink { return s.links[i] }

// FLOPs returns the floating-point operations to compute the output once.
func (s *Spec) FLOPs() float64 {
	if s.flops == nil {
		return 0
	}
	return s.flops(s)
}

// OutBytes returns the output tensor footprint in bytes.
func (s *Spec) OutBytes() int64 { return tensor.Bytes(s.out, s.dt) }

// InBytes returns the total bytes read from input tensors.
func (s *Spec) InBytes() int64 {
	var n int64
	for _, in := range s.ins {
		n += tensor.Bytes(in, s.dt)
	}
	return n
}

// AxisLen returns the extent of the given axis: a 1-based output dimension
// when axis > 0, or a reduce axis when axis < 0.
func (s *Spec) AxisLen(axis int) int {
	if axis > 0 {
		if axis > len(s.out) {
			return 0
		}
		return s.out.Dim(axis)
	}
	if -axis <= len(s.reduce) {
		return s.reduce[-axis-1]
	}
	return 0
}

// HasAxis reports whether axis names an existing output dim or reduce axis.
func (s *Spec) HasAxis(axis int) bool { return s.AxisLen(axis) > 0 }

// SplitAxis returns a copy of the operator whose chosen axis extent is
// divided by n, shrinking every input dimension linked to that axis. It
// returns an error when the axis does not exist or its extent is not
// divisible by n. This is the per-operator primitive of F-Trans: the
// returned Spec describes one of the n sequentially executed parts.
func (s *Spec) SplitAxis(axis, n int) (*Spec, error) {
	l := s.AxisLen(axis)
	if l == 0 {
		return nil, fmt.Errorf("ops: %s has no axis %d", s.kind, axis)
	}
	if n <= 1 || l%n != 0 {
		return nil, fmt.Errorf("ops: axis %d of %s has extent %d, not divisible by %d", axis, s.kind, l, n)
	}
	c := s.clone()
	if axis > 0 {
		c.out = c.out.WithDim(axis, l/n)
	} else {
		c.reduce[-axis-1] = l / n
	}
	for i := range c.ins {
		for _, lk := range c.links[i] {
			if lk.Out == axis {
				c.ins[i] = c.ins[i].WithDim(lk.In, c.ins[i].Dim(lk.In)/n)
			}
		}
	}
	return c, nil
}

func (s *Spec) clone() *Spec {
	c := &Spec{
		kind:   s.kind,
		attr:   s.attr,
		ins:    make([]tensor.Shape, len(s.ins)),
		out:    s.out.Clone(),
		dt:     s.dt,
		reduce: append([]int(nil), s.reduce...),
		links:  s.links, // immutable, shared
		flops:  s.flops,
	}
	for i, in := range s.ins {
		c.ins[i] = in.Clone()
	}
	return c
}

// String renders "Kind[attr] shapes -> out".
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString(s.kind)
	if s.attr != "" {
		fmt.Fprintf(&b, "[%s]", s.attr)
	}
	b.WriteByte(' ')
	for i, in := range s.ins {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(in.String())
	}
	b.WriteString(" -> ")
	b.WriteString(s.out.String())
	return b.String()
}

// Raw is the serializable form of a Spec (see Marshal/FromRaw). The flops
// function is re-derived from Kind on load via the registry in flops.go.
type Raw struct {
	Kind   string         `json:"kind"`
	Attr   string         `json:"attr,omitempty"`
	Ins    []tensor.Shape `json:"ins,omitempty"`
	Out    tensor.Shape   `json:"out"`
	DType  tensor.DType   `json:"dtype"`
	Reduce []int          `json:"reduce,omitempty"`
	Links  [][]DimLink    `json:"links,omitempty"`
}

// Marshal returns the serializable form of the operator.
func (s *Spec) Marshal() Raw {
	return Raw{
		Kind:   s.kind,
		Attr:   s.attr,
		Ins:    s.ins,
		Out:    s.out,
		DType:  s.dt,
		Reduce: s.reduce,
		Links:  s.links,
	}
}

// FromRaw reconstructs an operator from its serialized form, re-attaching
// the cost function for its kind.
func FromRaw(r Raw) *Spec {
	return &Spec{
		kind:   r.Kind,
		attr:   r.Attr,
		ins:    r.Ins,
		out:    r.Out,
		dt:     r.DType,
		reduce: r.Reduce,
		links:  r.Links,
		flops:  flopsFor(r.Kind),
	}
}

// identityLinks builds (i,i) links for every dimension of shape, excluding
// the 1-based dims listed in except.
func identityLinks(shape tensor.Shape, except ...int) []DimLink {
	skip := make(map[int]bool, len(except))
	for _, e := range except {
		skip[e] = true
	}
	var ls []DimLink
	for d := 1; d <= len(shape); d++ {
		if !skip[d] {
			ls = append(ls, DimLink{d, d})
		}
	}
	return ls
}
