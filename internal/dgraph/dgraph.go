// Package dgraph implements the Dimension Graph D(G) of §4.1: a graph
// whose nodes are the output dimensions and reduce axes of every operator,
// and whose edges connect dimensions that correspond to the same spatial
// axis across a data dependency. Its weakly connected components are the
// graph-level dimensions (batch, heads, sequence, ...) along which Fission
// Transformation is legal.
package dgraph

import (
	"cmp"
	"slices"

	"magis/internal/graph"
	"magis/internal/ops"
)

// DimNode is one vertex of D(G): axis Axis of the output of Node.
// Axis > 0 is a 1-based output dimension; Axis < 0 is a reduce axis.
type DimNode struct {
	Node graph.NodeID
	Axis int
}

// DGraph is the dimension graph of one computation graph, on dense vertex
// indices. Node v owns the vertices first[v] up to first[v+1]: its reduce
// axes -R..-1, then its output axes 1..rank. Vertex order is therefore
// (Node, Axis) order, the order of compareDimNodes.
type DGraph struct {
	first []int32
	verts []DimNode
	// out[outOff[x]:outOff[x+1]] are the consumer vertices x feeds, and
	// in[inOff[x]:inOff[x+1]] the producer vertices feeding x, duplicates
	// included.
	outOff, out []int32
	inOff, in   []int32
}

// Build constructs D(G). Nodes whose payload is not *ops.Spec contribute
// no dimension vertices.
func Build(g *graph.Graph) *DGraph {
	n := int(g.NextID())
	d := &DGraph{first: make([]int32, n+1)}
	for v := range n {
		d.first[v] = int32(len(d.verts))
		node := g.Node(graph.NodeID(v))
		if node == nil {
			continue
		}
		spec, ok := node.Op.(*ops.Spec)
		if !ok {
			continue
		}
		for r := spec.NumReduceAxes(); r >= 1; r-- {
			d.verts = append(d.verts, DimNode{graph.NodeID(v), -r})
		}
		for a := 1; a <= spec.OutShape().Rank(); a++ {
			d.verts = append(d.verts, DimNode{graph.NodeID(v), a})
		}
	}
	d.first[n] = int32(len(d.verts))
	type edge struct{ from, to int32 }
	var edges []edge
	for v := range n {
		node := g.Node(graph.NodeID(v))
		if node == nil {
			continue
		}
		spec, ok := node.Op.(*ops.Spec)
		if !ok {
			continue
		}
		for idx, u := range node.Ins {
			if _, isSpec := g.Node(u).Op.(*ops.Spec); !isSpec {
				continue
			}
			for _, lk := range spec.DimLinks(idx) {
				// A link naming an axis its operator lacks relates nothing.
				from, to := d.vertex(u, lk.In), d.vertex(graph.NodeID(v), lk.Out)
				if from >= 0 && to >= 0 {
					edges = append(edges, edge{from, to})
				}
			}
		}
	}
	// Two counting sorts keep each list in edge order.
	d.outOff = make([]int32, len(d.verts)+1)
	d.inOff = make([]int32, len(d.verts)+1)
	for _, e := range edges {
		d.outOff[e.from+1]++
		d.inOff[e.to+1]++
	}
	for x := range d.verts {
		d.outOff[x+1] += d.outOff[x]
		d.inOff[x+1] += d.inOff[x]
	}
	d.out = make([]int32, len(edges))
	d.in = make([]int32, len(edges))
	outAt := slices.Clone(d.outOff[:len(d.verts)])
	inAt := slices.Clone(d.inOff[:len(d.verts)])
	for _, e := range edges {
		d.out[outAt[e.from]] = e.to
		outAt[e.from]++
		d.in[inAt[e.to]] = e.from
		inAt[e.to]++
	}
	return d
}

// vertex returns the index of axis a of v, or -1 when D(G) has no such
// vertex.
func (d *DGraph) vertex(v graph.NodeID, a int) int32 {
	if v < 0 || int(v)+1 >= len(d.first) {
		return -1
	}
	lo, hi := d.first[v], d.first[v+1]
	if lo == hi {
		return -1
	}
	reduce := int32(0)
	if ax := d.verts[lo].Axis; ax < 0 {
		reduce = int32(-ax)
	}
	x := lo + reduce + int32(a)
	if a > 0 {
		x-- // output axes are 1-based
	}
	if a == 0 || x < lo || x >= hi {
		return -1
	}
	return x
}

// axes returns the vertices of v: its reduce axes, then its output axes.
func (d *DGraph) axes(v graph.NodeID) []DimNode {
	if v < 0 || int(v)+1 >= len(d.first) {
		return nil
	}
	return d.verts[d.first[v]:d.first[v+1]]
}

// feeds reports whether D(G) has an edge from axis au of u to axis av of v.
func (d *DGraph) feeds(u graph.NodeID, au int, v graph.NodeID, av int) bool {
	x, y := d.vertex(u, au), d.vertex(v, av)
	if x < 0 || y < 0 {
		return false
	}
	return slices.Contains(d.out[d.outOff[x]:d.outOff[x+1]], y)
}

// Component is one weakly connected component of D(G): a graph-level
// dimension. Its vertices are sorted by (Node, Axis), each once.
type Component []DimNode

func compareDimNodes(a, b DimNode) int {
	if a.Node != b.Node {
		return cmp.Compare(a.Node, b.Node)
	}
	return cmp.Compare(a.Axis, b.Axis)
}

// Has reports whether dn is a vertex of the component, by binary search.
func (c Component) Has(dn DimNode) bool {
	_, ok := slices.BinarySearchFunc(c, dn, compareDimNodes)
	return ok
}

// vertices returns the component's vertices of graph node v, by axis: a
// contiguous run, since the component is sorted by node first.
func (c Component) vertices(v graph.NodeID) []DimNode {
	i, _ := slices.BinarySearchFunc(c, v, func(dn DimNode, v graph.NodeID) int { return cmp.Compare(dn.Node, v) })
	j := i
	for j < len(c) && c[j].Node == v {
		j++
	}
	return c[i:j]
}

// Components returns the weakly connected components with at least two
// vertices (singleton dimensions admit no useful fission), ordered by
// their smallest member for determinism.
func (d *DGraph) Components() []Component {
	seen := make([]bool, len(d.verts))
	var comps []Component
	var comp []int32
	for x := range d.verts {
		if seen[x] {
			continue
		}
		comp = d.walk(int32(x), seen, comp[:0])
		if len(comp) >= 2 {
			comps = append(comps, d.component(comp))
		}
	}
	return comps
}

// ComponentOf returns the component holding dn, or nil when dn is not a
// vertex of D(G) or its component is a singleton. It walks that component
// alone.
func (d *DGraph) ComponentOf(dn DimNode) Component {
	x := d.vertex(dn.Node, dn.Axis)
	if x < 0 {
		return nil
	}
	comp := d.walk(x, make([]bool, len(d.verts)), nil)
	if len(comp) < 2 {
		return nil
	}
	return d.component(comp)
}

// walk appends to comp, breadth first, every vertex weakly connected to x,
// marking each in seen; x must not be marked yet.
func (d *DGraph) walk(x int32, seen []bool, comp []int32) []int32 {
	seen[x] = true
	comp = append(comp, x)
	for i := len(comp) - 1; i < len(comp); i++ {
		x := comp[i]
		for _, ys := range [2][]int32{d.out[d.outOff[x]:d.outOff[x+1]], d.in[d.inOff[x]:d.inOff[x+1]]} {
			for _, y := range ys {
				if !seen[y] {
					seen[y] = true
					comp = append(comp, y)
				}
			}
		}
	}
	return comp
}

// component sorts vertex indices, which sorts them by (Node, Axis), and
// returns their DimNodes.
func (d *DGraph) component(xs []int32) Component {
	slices.Sort(xs)
	c := make(Component, len(xs))
	for i, x := range xs {
		c[i] = d.verts[x]
	}
	return c
}

// GraphNodes returns the distinct graph nodes touched by a component. The
// component is sorted by node first, so dropping adjacent repeats leaves
// them ascending, each once: a Set by construction.
func (c Component) GraphNodes() graph.Set {
	var out graph.Set
	for i, dn := range c {
		if i == 0 || dn.Node != c[i-1].Node {
			out = append(out, dn.Node)
		}
	}
	return out
}
