package graph

import (
	"slices"
	"sync"
)

// Set is a node set with the boundary/closure operations from Table 1 of
// the paper. A Set is its members in ascending order, each once. Sets are
// built by this package (NewSet, Union and the operations below); the one
// conversion elsewhere, dgraph.Component.GraphNodes, is sorted and unique
// by construction. Callers read a Set as a slice and never sort it again.
type Set []NodeID

// NewSet builds a Set from ids, sorting and deduplicating a copy.
func NewSet(ids ...NodeID) Set { return sortedSet(slices.Clone(ids)) }

// sortedSet turns ids into a Set in place.
func sortedSet(ids []NodeID) Set {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Has reports whether v is a member, by binary search.
func (s Set) Has(v NodeID) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// Union returns the members of a or b.
func Union(a, b Set) Set {
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// overlap counts, in one merge walk, the members only in a, in both, and
// only in b.
func overlap(a, b Set) (onlyA, both, onlyB int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			onlyA++
			i++
		case a[i] > b[j]:
			onlyB++
			j++
		default:
			both++
			i++
			j++
		}
	}
	return onlyA + len(a) - i, both, onlyB + len(b) - j
}

// Contains reports whether every member of t is a member of s.
func (s Set) Contains(t Set) bool {
	_, _, onlyT := overlap(s, t)
	return onlyT == 0
}

// PartiallyOverlaps reports whether s and t intersect without either
// containing the other.
func (s Set) PartiallyOverlaps(t Set) bool {
	onlyS, both, onlyT := overlap(s, t)
	return both > 0 && onlyS > 0 && onlyT > 0
}

// IDTable maps NodeIDs to int32 values, one generation at a time. It is
// sized by a graph's ID range once and then reused: starting a generation
// invalidates every entry without clearing the table, so a pass over k
// nodes costs O(k) however large the graph's ID range is. It is the dense
// membership table of the loops below and of the scheduler.
type IDTable struct {
	gen   uint32
	stamp []uint32
	val   []int32
}

// Reset starts a new, empty generation that can hold IDs below n.
func (t *IDTable) Reset(n int) {
	if len(t.stamp) < n {
		t.stamp = make([]uint32, n+n/4)
		t.val = make([]int32, len(t.stamp))
		t.gen = 0
	}
	if t.gen++; t.gen == 0 {
		clear(t.stamp)
		t.gen = 1
	}
}

// Put maps v to x in the current generation; v must be below Reset's n.
func (t *IDTable) Put(v NodeID, x int32) {
	t.stamp[v] = t.gen
	t.val[v] = x
}

// Get returns v's value in the current generation; ok is false when v was
// not put in it.
func (t *IDTable) Get(v NodeID) (x int32, ok bool) {
	if uint(v) < uint(len(t.stamp)) && t.stamp[v] == t.gen {
		return t.val[v], true
	}
	return 0, false
}

// memberTable is the pooled working set of the member loops below: a
// membership table plus a reusable work stack.
type memberTable struct {
	IDTable
	stack []NodeID
}

// Values a memberTable maps nodes to: S's members, and nodes outside S
// that a walk has reached.
const (
	member  = 0
	reached = 1
)

// tables recycles the membership tables of the loops below: a pooled
// table starts a new generation in O(1), so a loop over S costs O(|S|)
// rather than an allocation sized by the graph's ID range.
var tables = sync.Pool{New: func() any { return new(memberTable) }}

// members returns a pooled table holding every member of s, mapped to
// member, with an empty stack. The caller hands it back with tables.Put.
func (g *Graph) members(s Set) *memberTable {
	t := tables.Get().(*memberTable)
	t.Reset(len(g.nodes))
	for _, v := range s {
		t.Put(v, member)
	}
	t.stack = t.stack[:0]
	return t
}

// isMember reports whether t maps v to member.
func (t *memberTable) isMember(v NodeID) bool {
	x, ok := t.Get(v)
	return ok && x == member
}

// Anc returns all (strict) ancestors of v: G.anc(v).
func (g *Graph) Anc(v NodeID) Set {
	n := g.Node(v)
	if n == nil {
		return nil
	}
	return g.closure(n.Ins, func(u NodeID) []NodeID { return g.nodes[u].Ins })
}

// Des returns all (strict) descendants of v: G.des(v).
func (g *Graph) Des(v NodeID) Set { return g.closure(g.sucList(v), g.sucList) }

// closure returns the nodes reachable from start along next, read off a
// visited marker in ascending order.
func (g *Graph) closure(start []NodeID, next func(NodeID) []NodeID) Set {
	seen := make([]bool, len(g.nodes))
	stack := append([]NodeID(nil), start...)
	n := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[u] {
			seen[u] = true
			n++
			stack = append(stack, next(u)...)
		}
	}
	out := make(Set, 0, n)
	for id, ok := range seen {
		if ok {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Inps returns G.inps(S): the nodes outside S consumed by members of S.
func (g *Graph) Inps(s Set) Set {
	t := g.members(s)
	defer tables.Put(t)
	return g.inps(t, s)
}

// inps is Inps over a table mapping S's members to member.
func (g *Graph) inps(t *memberTable, s Set) Set {
	var out []NodeID
	for _, v := range s {
		for _, p := range g.nodes[v].Ins {
			if !t.isMember(p) {
				out = append(out, p)
			}
		}
	}
	return sortedSet(out)
}

// Outs returns G.outs(S): members of S whose output is consumed outside S
// or that are outputs of the whole graph.
func (g *Graph) Outs(s Set) Set {
	t := g.members(s)
	defer tables.Put(t)
	var out Set
	for _, v := range s {
		sucs := g.sucList(v)
		if len(sucs) == 0 || slices.ContainsFunc(sucs, func(c NodeID) bool { return !t.isMember(c) }) {
			out = append(out, v)
		}
	}
	return out
}

// TopoWithin returns the members of s in g's topological order (Topo's
// order, restricted to S). Only S's ancestor closure is sorted, and only
// until the last member is out: every producer of a closure node is in
// the closure, so a closure node becomes ready exactly when it does in
// the whole graph, and whenever Topo's smallest ready node is in the
// closure it is the closure's smallest ready node. Members absent from g
// are skipped.
func (g *Graph) TopoWithin(s Set) []NodeID {
	t := g.members(s)
	defer tables.Put(t)
	// Collect the closure, then map each closure node to its in-degree,
	// shifted left once, with the low bit marking members.
	cone := t.stack[:0]
	for _, v := range s {
		if g.Has(v) {
			cone = append(cone, v)
		}
	}
	want := len(cone)
	for i := 0; i < len(cone); i++ {
		for _, p := range g.nodes[cone[i]].Ins {
			if _, ok := t.Get(p); !ok {
				t.Put(p, reached)
				cone = append(cone, p)
			}
		}
	}
	var frontier []NodeID
	for _, v := range cone {
		x, _ := t.Get(v)
		in := int32(len(g.nodes[v].Ins))
		if x == member {
			t.Put(v, in<<1|1)
		} else {
			t.Put(v, in<<1)
		}
		if in == 0 {
			frontier = append(frontier, v)
		}
	}
	t.stack = cone[:0]
	slices.Sort(frontier)
	out := make([]NodeID, 0, want)
	for head := 0; head < len(frontier) && len(out) < want; head++ {
		v := frontier[head]
		if x, _ := t.Get(v); x&1 == 1 {
			out = append(out, v)
		}
		for _, c := range g.sucList(v) {
			if x, ok := t.Get(c); ok {
				t.Put(c, x-2)
				if x>>1 == 1 {
					i, _ := slices.BinarySearch(frontier[head+1:], c)
					frontier = slices.Insert(frontier, head+1+i, c)
				}
			}
		}
	}
	if len(out) < want {
		panic("graph: cycle detected in Topo")
	}
	return out
}

// IsConvex reports whether the induced sub-graph G[S] is convex, i.e. no
// path leaves S and re-enters it. This is the paper's constraint (2), that
// G.inps(S) be disjoint from the descendants of G.outs(S): a path re-enters
// S exactly through one of its inputs.
func (g *Graph) IsConvex(s Set) bool {
	t := g.members(s)
	defer tables.Put(t)
	return g.convex(t, s)
}

// convex is IsConvex over a table mapping S's members to member. It floods
// downstream from S's external consumers, marking every node it reaches
// outside S, and fails as soon as the flood reaches a member.
func (g *Graph) convex(t *memberTable, s Set) bool {
	stack := t.stack[:0]
	defer func() { t.stack = stack[:0] }()
	for _, v := range s {
		for _, c := range g.sucList(v) {
			if _, ok := t.Get(c); !ok {
				t.Put(c, reached)
				stack = append(stack, c)
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.sucList(u) {
			if x, ok := t.Get(c); !ok {
				t.Put(c, reached)
				stack = append(stack, c)
			} else if x == member {
				return false // path left S and re-entered
			}
		}
	}
	return true
}

// IsWeaklyConnected reports whether G[S] is connected ignoring direction.
func (g *Graph) IsWeaklyConnected(s Set) bool {
	if len(s) <= 1 {
		return true
	}
	t := g.members(s)
	defer tables.Put(t)
	return len(g.flood(t, s[0])) == len(s)
}

// Components partitions S into weakly connected components of G[S],
// each returned in ascending ID order; components are ordered by their
// smallest member.
func (g *Graph) Components(s Set) [][]NodeID {
	t := g.members(s)
	defer tables.Put(t)
	var comps [][]NodeID
	for _, v := range s {
		if t.isMember(v) {
			comp := g.flood(t, v)
			slices.Sort(comp)
			comps = append(comps, comp)
		}
	}
	return comps
}

// flood returns the members weakly connected to member v in G[S], where t
// maps S's members to member until they are reached and to reached after.
func (g *Graph) flood(t *memberTable, v NodeID) []NodeID {
	var comp []NodeID
	stack := []NodeID{v}
	t.Put(v, reached)
	visit := func(w NodeID) {
		if t.isMember(w) {
			t.Put(w, reached)
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		comp = append(comp, u)
		for _, w := range g.nodes[u].Ins {
			visit(w)
		}
		for _, w := range g.sucList(u) {
			visit(w)
		}
	}
	return comp
}

// Subgraph extracts G[S] as a standalone Graph. Edges to producers outside
// S are dropped (the sub-graph's entries are exactly the members of S whose
// producers all lie outside S plus members with some external producers,
// whose Ins lists are filtered). Node IDs are preserved. Like Clone, all
// node and edge storage is packed into arena allocations.
func (g *Graph) Subgraph(s Set) *Graph {
	size := len(g.nodes)
	sub := &Graph{
		nodes: make([]*Node, size),
		suc:   make([][]NodeID, size),
		n:     len(s),
		next:  g.next,
	}
	// Count internal edges per producer: each contributes one Ins slot and
	// one suc slot.
	cnt := g.members(s)
	defer tables.Put(cnt)
	internal := 0
	for _, v := range s {
		for _, in := range g.nodes[v].Ins {
			if c, ok := cnt.Get(in); ok {
				cnt.Put(in, c+1)
				internal++
			}
		}
	}
	arena := make([]Node, len(s))
	ids := make([]NodeID, 2*internal)
	off := 0
	for i, v := range s {
		n := g.nodes[v]
		base := off
		for _, in := range n.Ins {
			if _, ok := cnt.Get(in); ok {
				ids[off] = in
				off++
			}
		}
		arena[i] = Node{ID: v, Op: n.Op, Ins: ids[base:off:off], Name: n.Name}
		sub.nodes[v] = &arena[i]
	}
	// Consumer lists, placed in the second half of the arena.
	for _, v := range s {
		if c, _ := cnt.Get(v); c > 0 {
			sub.suc[v] = ids[off : off : off+int(c)]
			off += int(c)
		}
	}
	for _, v := range s {
		for _, in := range sub.nodes[v].Ins {
			sub.suc[in] = append(sub.suc[in], v)
		}
	}
	return sub
}

// ReachIndex precomputes ancestor/descendant bitsets for every node,
// enabling O(1) narrow-waist queries: nw(v) = |V| - |anc(v)| - |des(v)| -
// 1 (§6.1). The index is immutable after construction and safe for
// concurrent reads.
type ReachIndex struct {
	n   int     // live node count of the indexed graph
	pos []int32 // NodeID -> bit position (its topological rank), -1 when absent

	anc, des   [][]uint64 // NodeID -> ancestor/descendant bitset rows
	nAnc, nDes []int32    // NodeID -> popcounts
}

// NewReachIndex builds the index for the current graph contents. All
// bitset rows share one arena allocation.
func NewReachIndex(g *Graph) *ReachIndex {
	order := g.Topo()
	size := len(g.nodes)
	r := &ReachIndex{
		n:    g.n,
		pos:  make([]int32, size),
		anc:  make([][]uint64, size),
		des:  make([][]uint64, size),
		nAnc: make([]int32, size),
		nDes: make([]int32, size),
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	for i, v := range order {
		r.pos[v] = int32(i)
	}
	n := len(order)
	words := (n + 63) / 64
	arena := make([]uint64, 2*n*words)
	// Ancestors accumulate forward in topo order.
	for _, v := range order {
		row := arena[:words:words]
		arena = arena[words:]
		for _, p := range g.nodes[v].Ins {
			orBits(row, r.anc[p])
			pi := r.pos[p]
			row[pi/64] |= 1 << (pi % 64)
		}
		r.anc[v] = row
		r.nAnc[v] = int32(popcount(row))
	}
	// Descendants accumulate backward symmetrically.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		row := arena[:words:words]
		arena = arena[words:]
		for _, s := range g.sucList(v) {
			orBits(row, r.des[s])
			si := r.pos[s]
			row[si/64] |= 1 << (si % 64)
		}
		r.des[v] = row
		r.nDes[v] = int32(popcount(row))
	}
	return r
}

// orBits ORs src into dst; the rows have equal length.
func orBits(dst, src []uint64) {
	for w := range src {
		dst[w] |= src[w]
	}
}

// NW returns the narrow-waist value of v: the number of nodes neither an
// ancestor nor a descendant of v, minus one.
func (r *ReachIndex) NW(v NodeID) int {
	if v < 0 || int(v) >= len(r.pos) || r.pos[v] < 0 {
		return -1
	}
	return NarrowWaist(r.n, int(r.nAnc[v]), int(r.nDes[v]))
}

// NarrowWaist is the narrow-waist value (§6.1) of a node with nAnc
// ancestors and nDes descendants among n nodes: the number of nodes
// neither its ancestor nor its descendant, minus one.
func NarrowWaist(n, nAnc, nDes int) int { return n - nAnc - nDes - 1 }

// NumAnc returns |G.anc(v)|.
func (r *ReachIndex) NumAnc(v NodeID) int { return int(r.nAnc[v]) }

// NumDes returns |G.des(v)|.
func (r *ReachIndex) NumDes(v NodeID) int { return int(r.nDes[v]) }

// IsDes reports whether v is a strict descendant of d, in O(1).
func (r *ReachIndex) IsDes(d, v NodeID) bool {
	p := r.pos[v]
	return r.des[d][p/64]&(1<<(p%64)) != 0
}

// IsAnc reports whether v is a strict ancestor of a, in O(1).
func (r *ReachIndex) IsAnc(a, v NodeID) bool {
	p := r.pos[v]
	return r.anc[a][p/64]&(1<<(p%64)) != 0
}

func idsEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}
