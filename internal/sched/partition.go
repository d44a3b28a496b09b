package sched

import (
	"math/bits"
	"slices"

	"magis/internal/graph"
)

// partScratch is the work storage of segments. Member tables are indexed
// by a member's position in the sorted member list.
type partScratch struct {
	uf     []int32  // union-find parent, then each position's root
	comp   []int32  // component number
	bit    []int32  // bit position within the component (ID order)
	start  []int32  // component number -> first entry in byComp
	byComp []int32  // positions grouped by component, ascending in each
	row    []int32  // first word of the position's anc row in bits
	nAnc   []int32  // ancestors within the component
	nDes   []int32  // descendants within the component
	bits   []uint64 // anc rows then des rows, one pair per position
	rem    []uint64 // the component's unassigned members
	seg    []uint64 // the segment being split off
	divs   []int32  // dividers of the current component
	ids    []graph.NodeID
	segs   [][]graph.NodeID
}

// segments splits members, a sorted list of g's nodes, into segments that
// can be scheduled independently and concatenated (§6.1). Within each
// weakly connected component of G[members], nodes whose narrow-waist value
// within the component is at most 1 act as dividing points, taken in
// order of (ancestor count, ID): everything not descending from a divider
// is sequenced before it, everything descending after. Components come in
// order of their smallest member, each segment lists its members in
// ascending ID order, and the segments are topologically ordered.
//
// The work tables are Scheduler-owned and, apart from sc.loc, sized by the
// member count, not by the graph's ID range. The segments alias that
// storage and are valid until the next segments call.
func (sc *Scheduler) segments(g *graph.Graph, members []graph.NodeID) [][]graph.NodeID {
	ps := &sc.part
	ps.segs = ps.segs[:0]
	if len(members) == 0 {
		return ps.segs
	}
	nComp := sc.reach(g, members)
	start, byComp, bit, nAnc := ps.start, ps.byComp, ps.bit, ps.nAnc
	if cap(ps.ids) < len(members) {
		ps.ids = make([]graph.NodeID, 0, len(members))
	}
	ids := ps.ids[:0]
	segs := ps.segs
	emit := func(c int32, set []uint64) {
		base := len(ids)
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				b := w*64 + bits.TrailingZeros64(word)
				ids = append(ids, members[byComp[int(start[c])+b]])
			}
		}
		segs = append(segs, ids[base:len(ids):len(ids)])
	}
	for c := int32(0); c < nComp; c++ {
		cm := byComp[start[c]:start[c+1]]
		m := int32(len(cm))
		divs := ps.divs[:0]
		for _, i := range cm {
			if ps.nw(i, int(m)) <= 1 {
				divs = append(divs, i)
			}
		}
		slices.SortFunc(divs, func(a, b int32) int {
			if nAnc[a] != nAnc[b] {
				return int(nAnc[a] - nAnc[b])
			}
			return int(a - b)
		})
		ps.divs = divs
		w := compWords(start, c)
		rem := ensureU64(ps.rem, w)
		ps.rem = rem
		for k := range rem {
			rem[k] = ^uint64(0)
		}
		if r := m % 64; r != 0 {
			rem[w-1] = 1<<r - 1
		}
		for _, d := range divs {
			if rem[bit[d]/64]&(1<<(bit[d]%64)) == 0 {
				continue
			}
			dd := ps.des(d)
			after := 0
			for k := range rem {
				after += bits.OnesCount64(rem[k] & dd[k])
			}
			if after == 0 {
				continue
			}
			seg := ensureU64(ps.seg, w)
			ps.seg = seg
			for k := range rem {
				rem[k], seg[k] = rem[k]&dd[k], rem[k]&^dd[k]
			}
			emit(c, seg)
		}
		emit(c, rem) // never empty: a split leaves d's descendants
	}
	ps.ids, ps.segs = ids, segs
	return segs
}

// reach fills sc.part for members, a sorted list of g's nodes: the weakly
// connected components of G[members] numbered by smallest member, each
// member's bit position within its component, and ancestor and descendant
// bitsets over each component only, with their counts. Tables are indexed
// by member position, which sc.loc maps each member to. It returns the
// number of components.
func (sc *Scheduler) reach(g *graph.Graph, members []graph.NodeID) (nComp int32) {
	ps := &sc.part
	n := len(members)
	e := sc.index(g, members)
	off, succ, topo := e.off, e.succ, e.topo
	uf := ensureI32(ps.uf, n)
	ps.uf = uf
	for i := range uf {
		uf[i] = int32(i)
	}
	for i := int32(0); i < int32(n); i++ {
		for _, s := range succ[off[i]:off[i+1]] {
			union(uf, i, s)
		}
	}

	// Components, numbered by smallest member; members grouped by
	// component in ascending position, i.e. ascending ID.
	comp := ensureI32(ps.comp, n)
	bit := ensureI32(ps.bit, n)
	ps.comp, ps.bit = comp, bit
	for i := range uf {
		uf[i] = find(uf, int32(i))
	}
	start := ps.start[:0]
	for i := range uf {
		if r := uf[i]; r == int32(i) {
			comp[i] = nComp
			nComp++
			start = append(start, 0)
		} else {
			comp[i] = comp[r]
		}
		bit[i] = start[comp[i]]
		start[comp[i]]++
	}
	start = append(start, 0)
	for c, sum := int32(0), int32(0); c <= nComp; c++ {
		start[c], sum = sum, sum+start[c]
	}
	ps.start = start
	byComp := ensureI32(ps.byComp, n)
	ps.byComp = byComp
	for i, c := range comp {
		byComp[start[c]+bit[i]] = int32(i)
	}

	// Ancestor and descendant bitsets over each component only.
	row := ensureI32(ps.row, n)
	ps.row = row
	words := 0
	for i := range comp {
		row[i] = int32(words)
		words += 2 * compWords(start, comp[i])
	}
	if cap(ps.bits) < words {
		ps.bits = make([]uint64, words)
	}
	bs := ps.bits[:words]
	clear(bs)
	ps.bits = bs
	for _, i := range topo {
		a := ps.anc(i)
		for _, s := range succ[off[i]:off[i+1]] {
			as := ps.anc(s)
			orBits(as, a)
			as[bit[i]/64] |= 1 << (bit[i] % 64)
		}
	}
	for k := n - 1; k >= 0; k-- {
		i := topo[k]
		d := ps.des(i)
		for _, s := range succ[off[i]:off[i+1]] {
			orBits(d, ps.des(s))
			d[bit[s]/64] |= 1 << (bit[s] % 64)
		}
	}
	nAnc := ensureI32(ps.nAnc, n)
	nDes := ensureI32(ps.nDes, n)
	ps.nAnc, ps.nDes = nAnc, nDes
	for i := int32(0); i < int32(n); i++ {
		nAnc[i] = int32(popcount(ps.anc(i)))
		nDes[i] = int32(popcount(ps.des(i)))
	}
	return nComp
}

// nw is the narrow-waist value of member position i among n nodes, from
// the counts reach filled in.
func (ps *partScratch) nw(i int32, n int) int {
	return graph.NarrowWaist(n, int(ps.nAnc[i]), int(ps.nDes[i]))
}

// anc is the ancestor row of member position i.
func (ps *partScratch) anc(i int32) []uint64 {
	w := compWords(ps.start, ps.comp[i])
	return ps.bits[ps.row[i] : int(ps.row[i])+w]
}

// des is the descendant row of member position i.
func (ps *partScratch) des(i int32) []uint64 {
	w := compWords(ps.start, ps.comp[i])
	return ps.bits[int(ps.row[i])+w : int(ps.row[i])+2*w]
}

// memberEdges is the graph induced on a sorted list of members, over
// member positions: in-set in-degrees, consumer lists in CSR form (both
// with edge multiplicity), and a topological order.
type memberEdges struct {
	indeg, off, succ, topo []int32
}

// index maps members, a sorted list of g's nodes, to their positions in
// sc.loc and builds sc.edges for them. The topological order is Kahn's
// algorithm taking the smallest ready position, i.e. ID, first: the order
// g.Subgraph(members).Topo() gives. It panics when the members form a
// cycle.
func (sc *Scheduler) index(g *graph.Graph, members []graph.NodeID) *memberEdges {
	e := &sc.edges
	n := len(members)
	loc := &sc.loc
	loc.Reset(int(members[n-1]) + 1)
	for i, v := range members {
		loc.Put(v, int32(i))
	}
	indeg := ensureI32(e.indeg, n)
	off := ensureI32(e.off, n+1)
	e.indeg, e.off = indeg, off
	clear(indeg)
	clear(off)
	total := 0
	for i, v := range members {
		for _, u := range g.Node(v).Ins {
			if j, ok := loc.Get(u); ok {
				indeg[i]++
				off[j+1]++
				total++
			}
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := ensureI32(e.succ, total)
	fill := ensureI32(e.topo, n)
	e.succ = succ
	copy(fill, off[:n])
	for i, v := range members {
		for _, u := range g.Node(v).Ins {
			if j, ok := loc.Get(u); ok {
				succ[fill[j]] = int32(i)
				fill[j]++
			}
		}
	}
	// Keeping the ready window q[head:] sorted pops the smallest ready
	// position; popped positions stay in q[:head] as the order.
	q := fill[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			q = append(q, int32(i))
		}
	}
	for head := 0; head < len(q); {
		i := q[head]
		head++
		for _, s := range succ[off[i]:off[i+1]] {
			if indeg[s]--; indeg[s] == 0 {
				q = q[:head+len(insertSorted(q[head:], s))]
			}
		}
	}
	if len(q) != n {
		panic("sched: cycle among scheduled members")
	}
	e.topo = q
	return e
}

// compWords is the bitset row length, in words, of component c.
func compWords(start []int32, c int32) int {
	return int(start[c+1]-start[c]+63) / 64
}

// find returns the root of i's tree, halving the path on the way.
func find(uf []int32, i int32) int32 {
	for uf[i] != i {
		uf[i] = uf[uf[i]]
		i = uf[i]
	}
	return i
}

// union joins the trees of i and j under the smaller root, so each root is
// its component's smallest position.
func union(uf []int32, i, j int32) {
	ri, rj := find(uf, i), find(uf, j)
	switch {
	case ri < rj:
		uf[rj] = ri
	case rj < ri:
		uf[ri] = rj
	}
}

// orBits ORs src into dst; the rows have equal length.
func orBits(dst, src []uint64) {
	for w := range src {
		dst[w] |= src[w]
	}
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// ScheduleGraph computes a full memory-minimizing schedule for g:
// partition at narrow waists, DpSchedule each segment, concatenate.
func (sc *Scheduler) ScheduleGraph(g *graph.Graph) Schedule {
	out := make(Schedule, 0, g.Len())
	for _, seg := range sc.segments(g, g.NodeIDs()) {
		out = sc.schedule(out, g, seg)
	}
	// Segments from different components may interleave arbitrarily; the
	// concatenation above is already a valid topological order within each
	// component, but cross-component producer/consumer links cannot exist.
	// A final validity check guards the divider logic.
	if err := out.Validate(g); err != nil {
		return g.Topo()
	}
	return out
}
