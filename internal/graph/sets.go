package graph

// Set is a node set with the boundary/closure operations from Table 1 of
// the paper.
type Set map[NodeID]bool

// NewSet builds a Set from IDs.
func NewSet(ids ...NodeID) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Slice returns the members in ascending order.
func (s Set) Slice() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for id := range s {
		c[id] = true
	}
	return c
}

// Anc returns all (strict) ancestors of v: G.anc(v).
func (g *Graph) Anc(v NodeID) Set {
	out := make(Set)
	n := g.Node(v)
	if n == nil {
		return out
	}
	stack := append([]NodeID(nil), n.Ins...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[u] {
			continue
		}
		out[u] = true
		stack = append(stack, g.nodes[u].Ins...)
	}
	return out
}

// Des returns all (strict) descendants of v: G.des(v).
func (g *Graph) Des(v NodeID) Set {
	out := make(Set)
	stack := append([]NodeID(nil), g.sucList(v)...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[u] {
			continue
		}
		out[u] = true
		stack = append(stack, g.sucList(u)...)
	}
	return out
}

// Inps returns G.inps(S): the nodes outside S consumed by members of S.
func (g *Graph) Inps(s Set) Set {
	out := make(Set)
	for v := range s {
		for _, p := range g.nodes[v].Ins {
			if !s[p] {
				out[p] = true
			}
		}
	}
	return out
}

// Outs returns G.outs(S): members of S whose output is consumed outside S
// or that are outputs of the whole graph.
func (g *Graph) Outs(s Set) Set {
	out := make(Set)
	for v := range s {
		sucs := g.sucList(v)
		if len(sucs) == 0 {
			out[v] = true
			continue
		}
		for _, c := range sucs {
			if !s[c] {
				out[v] = true
				break
			}
		}
	}
	return out
}

// IsConvex reports whether the induced sub-graph G[S] is convex, i.e. no
// path leaves S and re-enters it. Per the paper's constraint (2):
// G.inps(S) must be disjoint from the descendants of G.outs(S)... the
// equivalent and more direct check used here is: no input of S is a
// descendant of any output of S.
func (g *Graph) IsConvex(s Set) bool {
	inps := g.Inps(s)
	if len(inps) == 0 {
		return true
	}
	// Collect descendants of all outputs of S that lie outside S, and
	// verify none of them feeds back into S.
	outs := g.Outs(s)
	seen := make(Set)
	var stack []NodeID
	for o := range outs {
		for _, c := range g.sucList(o) {
			if !s[c] {
				stack = append(stack, c)
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		if s[u] {
			return false // path left S and re-entered
		}
		stack = append(stack, g.sucList(u)...)
	}
	// Also no external descendant may be an input of S (it would create a
	// dependency cycle once S collapses to one step).
	for u := range seen {
		if inps[u] {
			return false
		}
	}
	return true
}

// IsWeaklyConnected reports whether G[S] is connected ignoring direction.
func (g *Graph) IsWeaklyConnected(s Set) bool {
	if len(s) <= 1 {
		return true
	}
	var start NodeID
	for v := range s {
		start = v
		break
	}
	seen := Set{start: true}
	stack := []NodeID{start}
	visit := func(w NodeID) {
		if s[w] && !seen[w] {
			seen[w] = true
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.nodes[u].Ins {
			visit(w)
		}
		for _, w := range g.sucList(u) {
			visit(w)
		}
	}
	return len(seen) == len(s)
}

// Components partitions S into weakly connected components of G[S],
// each returned in ascending ID order; components are ordered by their
// smallest member.
func (g *Graph) Components(s Set) [][]NodeID {
	seen := make(Set, len(s))
	var comps [][]NodeID
	for _, v := range s.Slice() {
		if seen[v] {
			continue
		}
		comp := []NodeID{}
		stack := []NodeID{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			visit := func(w NodeID) {
				if s[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
			for _, w := range g.nodes[u].Ins {
				visit(w)
			}
			for _, w := range g.sucList(u) {
				visit(w)
			}
		}
		sortIDs(comp)
		comps = append(comps, comp)
	}
	return comps
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
	// Count internal edges: each contributes one Ins slot and one suc slot.
	internal := 0
	for v := range s {
		for _, in := range g.nodes[v].Ins {
			if s[in] {
				internal++
			}
		}
	}
	sub.nodeArena = make([]Node, len(s))
	sub.idArena = make([]NodeID, 2*internal)
	arena, ids := sub.nodeArena, sub.idArena
	ai, off := 0, 0
	for v := range s {
		n := g.nodes[v]
		base := off
		for _, in := range n.Ins {
			if s[in] {
				ids[off] = in
				off++
			}
		}
		arena[ai] = Node{ID: v, Op: n.Op, Ins: ids[base:off:off], Name: n.Name}
		sub.nodes[v] = &arena[ai]
		ai++
	}
	// Consumer lists, placed in the second half of the arena via a
	// counting pass.
	cnt := make([]int32, size)
	for v := range s {
		for _, in := range sub.nodes[v].Ins {
			cnt[in]++
		}
	}
	for id, c := range cnt {
		if c > 0 {
			sub.suc[id] = ids[off:off:off+int(c)]
			off += int(c)
		}
	}
	for v := range s {
		for _, in := range sub.nodes[v].Ins {
			sub.suc[in] = append(sub.suc[in], v)
		}
	}
	return sub
}

// ReachIndex precomputes ancestor/descendant bitsets for every node,
// enabling O(1) narrow-waist queries: nw(v) = |V| - |anc(v)| - |des(v)| -
// 1 (§6.1). The index is immutable after construction and safe for
// concurrent reads; Rebase derives a successor index cheaply after a
// localized rewrite.
type ReachIndex struct {
	n    int     // live node count of the indexed graph
	pos  []int32 // NodeID -> bit position, -1 when absent
	nPos int     // total bit positions allocated (>= n after rebases)

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
		nPos: len(order),
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

// orBits ORs src into dst over the shorter of the two lengths (rows from
// older index generations may be narrower).
func orBits(dst, src []uint64) {
	m := len(src)
	if len(dst) < m {
		m = len(dst)
	}
	for w := 0; w < m; w++ {
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
	row := r.des[d]
	if w := int(p / 64); w < len(row) {
		return row[w]&(1<<(p%64)) != 0
	}
	return false
}

// IsAnc reports whether v is a strict ancestor of a, in O(1).
func (r *ReachIndex) IsAnc(a, v NodeID) bool {
	p := r.pos[v]
	row := r.anc[a]
	if w := int(p / 64); w < len(row) {
		return row[w]&(1<<(p%64)) != 0
	}
	return false
}

// Rebase derives the reachability index of g from the index of a
// structurally similar predecessor graph prevG (typically the parent
// M-State's evaluation graph before a single rewrite). Rows of nodes whose
// ancestor (resp. descendant) cone is untouched are copied; only nodes
// downstream (resp. upstream) of the mutation are recomputed. The clean
// check is self-verifying — it compares node structure directly, so a
// wrong or incomplete mutation hint can only cost speed, never
// correctness. Returns nil when the delta is too large to be worth it or
// the position space has grown too sparse; callers then fall back to
// NewReachIndex.
func Rebase(prev *ReachIndex, prevG, g *Graph) *ReachIndex {
	if prev == nil || prevG == nil {
		return nil
	}
	order, err := g.TopoE()
	if err != nil {
		return nil
	}
	size := len(g.nodes)
	// Assign bit positions: survivors keep theirs, new nodes extend.
	pos := make([]int32, size)
	for i := range pos {
		pos[i] = -1
	}
	nPos := prev.nPos
	for _, v := range order {
		if int(v) < len(prev.pos) && prev.pos[v] >= 0 {
			pos[v] = prev.pos[v]
		} else {
			pos[v] = int32(nPos)
			nPos++
		}
	}
	// Retired positions of removed nodes widen every row; once the space
	// is mostly dead weight a fresh build is cheaper.
	if nPos > 2*g.n+64 {
		return nil
	}
	words := (nPos + 63) / 64
	r := &ReachIndex{
		n:    g.n,
		pos:  pos,
		nPos: nPos,
		anc:  make([][]uint64, size),
		des:  make([][]uint64, size),
		nAnc: make([]int32, size),
		nDes: make([]int32, size),
	}
	arena := make([]uint64, 2*g.n*words)
	row := func() []uint64 {
		w := arena[:words:words]
		arena = arena[words:]
		return w
	}
	// cleanAnc[v]: v exists in prevG with identical Ins and every producer
	// clean — then prev's ancestor row is exact in the new graph.
	cleanAnc := make([]bool, size)
	dirty := 0
	for _, v := range order {
		pn := prevG.Node(v)
		n := g.nodes[v]
		ok := pn != nil && idsEqual(pn.Ins, n.Ins)
		if ok {
			for _, p := range n.Ins {
				if !cleanAnc[p] {
					ok = false
					break
				}
			}
		}
		cleanAnc[v] = ok
		if !ok {
			dirty++
		}
	}
	// cleanDes[v]: symmetric over consumer lists.
	cleanDes := make([]bool, size)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		ok := prevG.Has(v) && idsEqualUnordered(prevG.sucList(v), g.sucList(v))
		if ok {
			for _, s := range g.sucList(v) {
				if !cleanDes[s] {
					ok = false
					break
				}
			}
		}
		cleanDes[v] = ok
		if !ok {
			dirty++
		}
	}
	if dirty > g.n {
		return nil // more than half the rows need recomputing anyway
	}
	for _, v := range order {
		w := row()
		if cleanAnc[v] {
			copy(w, prev.anc[v])
			r.nAnc[v] = prev.nAnc[v]
		} else {
			for _, p := range g.nodes[v].Ins {
				orBits(w, r.anc[p])
				pi := pos[p]
				w[pi/64] |= 1 << (pi % 64)
			}
			r.nAnc[v] = int32(popcount(w))
		}
		r.anc[v] = w
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		w := row()
		if cleanDes[v] {
			copy(w, prev.des[v])
			r.nDes[v] = prev.nDes[v]
		} else {
			for _, s := range g.sucList(v) {
				orBits(w, r.des[s])
				si := pos[s]
				w[si/64] |= 1 << (si % 64)
			}
			r.nDes[v] = int32(popcount(w))
		}
		r.des[v] = w
	}
	return r
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

// idsEqualUnordered compares two edge lists as multisets. Lists are tiny;
// the quadratic fallback only runs when the element-wise compare fails.
func idsEqualUnordered(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	if idsEqual(a, b) {
		return true
	}
	used := make([]bool, len(b))
outer:
	for _, x := range a {
		for j, y := range b {
			if !used[j] && x == y {
				used[j] = true
				continue outer
			}
		}
		return false
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
