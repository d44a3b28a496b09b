package sched

import (
	"math/bits"
	"sort"

	"magis/internal/graph"
)

// Scheduler finds memory-minimizing topological orders. Small sub-problems
// are solved exactly with the dynamic program over scheduled-sets used by
// Serenity (the paper's DpSchedule, Algorithm 2 line 11); medium ones fall
// back to beam search over the same state space; large ones to a greedy
// beam of width 1. The zero value is ready to use with sensible defaults.
type Scheduler struct {
	// MaxExact is the largest sub-problem solved with the exact DP.
	MaxExact int
	// BeamLimit is the largest sub-problem solved with beam search.
	BeamLimit int
	// BeamWidth is the beam width for medium sub-problems.
	BeamWidth int

	// Fallbacks counts IncrementalR calls that gave up on the splice and
	// rescheduled the whole graph: a panic while splicing, no mutation
	// site in the old schedule, or a spliced order that fails validation.
	Fallbacks int

	// Reused work storage; a Scheduler is therefore not safe for
	// concurrent use (the search gives each worker its own). The search
	// partitions and schedules sub-problems of every candidate, and prices
	// every fission region, so the per-call state lives in tables that
	// persist across calls instead of per-call allocations.
	loc     graph.IDTable // NodeID -> position in the current sub-problem
	old     graph.IDTable // IncrementalR: NodeID -> position in the old schedule
	edges   memberEdges
	part    partScratch
	pb      problem
	slots   []beamEntry
	cands   []beamCand
	kids    []int32
	exactTo []int32
	ivs     [][]graph.NodeID
}

func (sc *Scheduler) maxExact() int {
	if sc.MaxExact > 0 {
		return sc.MaxExact
	}
	return 16
}

func (sc *Scheduler) beamLimit() int {
	if sc.BeamLimit > 0 {
		return sc.BeamLimit
	}
	return 400
}

func (sc *Scheduler) beamWidth() int {
	if sc.BeamWidth > 0 {
		return sc.BeamWidth
	}
	return 8
}

// DpSchedule returns a peak-memory-minimizing execution order for the
// standalone graph g (exact for small g, approximate beyond MaxExact).
func (sc *Scheduler) DpSchedule(g *graph.Graph) Schedule {
	return sc.schedule(nil, g, g.NodeIDs())
}

// schedule appends to dst a peak-memory-minimizing order of seg, a sorted
// list of g's nodes, scheduled on its own: producers outside seg are taken
// as already computed, and a member's output is freed after its last
// consumer inside seg (kept to the end when it has none), exactly as
// DpSchedule(g.Subgraph(seg)) would.
func (sc *Scheduler) schedule(dst Schedule, g *graph.Graph, seg []graph.NodeID) Schedule {
	n := len(seg)
	switch n {
	case 0:
		return dst
	case 1:
		return append(dst, seg[0])
	}
	p := sc.problemOn(g, seg)
	var order []int32
	switch {
	case n <= sc.maxExact():
		order = sc.exact(p)
	case n <= sc.beamLimit():
		order = sc.beam(p, sc.beamWidth())
	default:
		order = sc.beam(p, 1)
	}
	for _, v := range order {
		dst = append(dst, p.ids[v])
	}
	return dst
}

// problem is the indexed form of a scheduling sub-problem. All per-node
// tables and both adjacency arenas are reused across calls.
type problem struct {
	ids      []graph.NodeID // index -> node, topo order
	preds    [][]int32      // distinct predecessors, arena-backed
	sucs     [][]int32      // distinct consumers, arena-backed
	size     []int64
	trans    []int64
	hasCons  []bool   // has a consumer inside the sub-problem
	predMask []uint64 // exact DP only, n <= 64
	sucMask  []uint64

	predArena, sucArena, cnt, pos []int32
	free                          []int64
}

func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensureI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func ensureU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// problemOn (re)builds sc.pb for seg, a sorted list of g's nodes, as a
// standalone sub-problem: only edges between members count. Nodes are
// indexed in the order of Kahn's algorithm taking the smallest ready ID
// first, which is the order g.Subgraph(seg).Topo() gives. The result is
// valid until the next problemOn call on the same Scheduler, and sc.loc
// maps each member to its index until then.
func (sc *Scheduler) problemOn(g *graph.Graph, seg []graph.NodeID) *problem {
	p := &sc.pb
	n := len(seg)
	e := sc.index(g, seg)
	if cap(p.ids) < n {
		p.ids = make([]graph.NodeID, n)
	} else {
		p.ids = p.ids[:n]
	}
	if cap(p.hasCons) < n {
		p.hasCons = make([]bool, n)
	} else {
		p.hasCons = p.hasCons[:n]
	}
	loc := &sc.loc
	for k, i := range e.topo {
		p.ids[k] = seg[i]
		p.hasCons[k] = e.off[i+1] > e.off[i]
		loc.Put(seg[i], int32(k))
	}
	if cap(p.preds) < n {
		p.preds = make([][]int32, n)
		p.sucs = make([][]int32, n)
	} else {
		p.preds = p.preds[:n]
		p.sucs = p.sucs[:n]
	}
	p.size = ensureI64(p.size, n)
	p.trans = ensureI64(p.trans, n)
	small := n <= 64
	if small {
		p.predMask = ensureU64(p.predMask, n)
		p.sucMask = ensureU64(p.sucMask, n)
		for i := 0; i < n; i++ {
			p.predMask[i] = 0
			p.sucMask[i] = 0
		}
	} else {
		p.predMask, p.sucMask = p.predMask[:0], p.sucMask[:0]
	}
	// Distinct predecessors, deduplicated by linear scan (input lists are
	// tiny) into one arena.
	arena := p.predArena[:0]
	for i, v := range p.ids {
		node := g.Node(v)
		p.size[i] = OutDeviceBytes(node)
		p.trans[i] = ExecTransientBytes(node)
		base := len(arena)
	ins:
		for _, pr := range node.Ins {
			j, ok := loc.Get(pr)
			if !ok {
				continue
			}
			for _, e := range arena[base:] {
				if e == j {
					continue ins
				}
			}
			arena = append(arena, j)
		}
		p.preds[i] = arena[base:len(arena):len(arena)]
		if small {
			for _, j := range arena[base:] {
				p.predMask[i] |= 1 << j
				p.sucMask[j] |= 1 << i
			}
		}
	}
	p.predArena = arena
	// Distinct consumers: preds are deduplicated, so each (u, v) pair
	// occurs once; counting pass sizes the arena sub-slices.
	cnt := ensureI32(p.cnt, n)
	p.cnt = cnt
	for i := range cnt {
		cnt[i] = 0
	}
	total := 0
	for i := range p.preds {
		for _, u := range p.preds[i] {
			cnt[u]++
			total++
		}
	}
	sa := ensureI32(p.sucArena, total)
	p.sucArena = sa
	at := int32(0)
	for u := 0; u < n; u++ {
		p.sucs[u] = sa[at : at : at+cnt[u]]
		at += cnt[u]
	}
	for i := range p.preds {
		for _, u := range p.preds[i] {
			p.sucs[u] = append(p.sucs[u], int32(i))
		}
	}
	return p
}

type dpEntry struct {
	peak  int64
	alive int64
	prev  uint64
	last  int8
}

// exact runs the exponential DP over subsets (n <= 64 by construction).
// The order it returns is valid until the next exact or beam call.
func (sc *Scheduler) exact(p *problem) []int32 {
	// Upper bound from greedy to prune the DP.
	greedy := sc.beam(p, 1)
	bound := p.peakOf(greedy)

	n := len(p.ids)
	memo := map[uint64]dpEntry{0: {}}
	frontier := []uint64{0}
	full := uint64(1)<<n - 1
	for layer := 0; layer < n; layer++ {
		next := make(map[uint64]bool)
		for _, mask := range frontier {
			e := memo[mask]
			for v := 0; v < n; v++ {
				bit := uint64(1) << v
				if mask&bit != 0 || p.predMask[v]&mask != p.predMask[v] {
					continue
				}
				nm := mask | bit
				execMem := e.alive + p.size[v] + p.trans[v]
				peak := e.peak
				if execMem > peak {
					peak = execMem
				}
				if peak > bound {
					continue
				}
				alive := e.alive + p.size[v]
				// Free predecessors fully consumed by nm (and only those:
				// adding v can complete only its own predecessors).
				for _, u := range p.preds[v] {
					if p.sucMask[u] != 0 && p.sucMask[u]&nm == p.sucMask[u] {
						alive -= p.size[u]
					}
				}
				old, ok := memo[nm]
				if !ok || peak < old.peak || (peak == old.peak && alive < old.alive) {
					memo[nm] = dpEntry{peak: peak, alive: alive, prev: mask, last: int8(v)}
					next[nm] = true
				}
			}
		}
		frontier = frontier[:0]
		for m := range next {
			frontier = append(frontier, m)
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	}
	if _, ok := memo[full]; !ok {
		// Pruning removed every path (bound was already optimal): fall back.
		return greedy
	}
	order := ensureI32(sc.exactTo, n)
	sc.exactTo = order
	for mask := full; mask != 0; {
		e := memo[mask]
		order[bits.OnesCount64(mask)-1] = int32(e.last)
		mask = e.prev
	}
	return order
}

// peakOf is PeakOnly of order on the standalone sub-problem: a node's
// output is freed after its last consumer runs, or kept to the end when it
// has none.
func (p *problem) peakOf(order []int32) int64 {
	n := len(order)
	pos := ensureI32(p.pos, n)
	free := ensureI64(p.free, n)
	p.pos, p.free = pos, free
	clear(free)
	for i, v := range order {
		pos[v] = int32(i)
	}
	for v := range order {
		last := int32(n - 1)
		if p.hasCons[v] {
			last = pos[v]
			for _, s := range p.sucs[v] {
				last = max(last, pos[s])
			}
		}
		free[last] += p.size[v]
	}
	var cur, peak int64
	for i, v := range order {
		cur += p.size[v]
		peak = max(peak, cur+p.trans[v])
		cur -= free[i]
	}
	return peak
}

// beamEntry is one scheduled-prefix state, living in a persistent slot.
type beamEntry struct {
	rem   []int32 // unscheduled distinct-consumer count per node
	ready []int32 // unscheduled predecessor count per node
	front []int32 // ready, unscheduled nodes: the entry's candidates
	order []int32
	alive int64
	peak  int64
}

// freedIf returns bytes released when v executes on top of e: v's
// predecessors for which v is the last unscheduled consumer.
func (e *beamEntry) freedIf(p *problem, v int32) int64 {
	var freed int64
	for _, u := range p.preds[v] {
		if p.hasCons[u] && e.rem[u] == 1 {
			freed += p.size[u]
		}
	}
	return freed
}

// beamCand extends the beam entry ranked from with node v. It holds no
// pointers, so the candidate buffer costs the garbage collector nothing.
type beamCand struct {
	from  int32 // parent's rank in the current beam
	v     int32
	peak  int64
	delta int64 // net alive change; lower is better
}

// beam runs width-w beam search over the DP state space; w = 1 is the
// greedy list scheduler used for very large partitions. Beam states live
// in 2w persistent slots (parents in one half, children built in the
// other), so a whole run performs no per-step allocation.
//
// A step costs expected O(w·(F + d)) for frontier size F and degree d,
// plus one O(n) copy per parent that keeps more than one child. Each
// entry keeps its ready frontier sorted by node index, so candidates come
// out in the order a scan of all n nodes would give. selectTop then keeps
// the w best exactly as a full sort.Sort of them would, ties between
// parents included, so the schedules are those of the full scan and sort.
// A parent's last kept child takes over the parent's buffers instead of
// copying them.
//
// The order it returns aliases a slot and is valid until the next beam
// call.
func (sc *Scheduler) beam(p *problem, w int) []int32 {
	n := len(p.ids)
	if cap(sc.slots) < 2*w {
		sc.slots = make([]beamEntry, 2*w)
	} else {
		sc.slots = sc.slots[:2*w]
	}
	for i := range sc.slots {
		e := &sc.slots[i]
		e.rem = ensureI32(e.rem, n)
		e.ready = ensureI32(e.ready, n)
		e.front = ensureI32(e.front, n)[:0]
		e.order = ensureI32(e.order, n)[:0]
	}
	start := &sc.slots[0]
	for v := 0; v < n; v++ {
		start.rem[v] = int32(len(p.sucs[v]))
		start.ready[v] = int32(len(p.preds[v]))
		if start.ready[v] == 0 {
			start.front = append(start.front, int32(v))
		}
	}
	start.alive, start.peak = 0, 0

	cands := sc.cands[:0]
	// kids[i] counts the kept children of parent i not yet built.
	kids := ensureI32(sc.kids, w)
	sc.kids = kids
	beam := sc.slots[:1]
	half := 0
	for step := 0; step < n; step++ {
		cands = cands[:0]
		for i := range beam {
			e := &beam[i]
			for _, v := range e.front {
				peak := e.peak
				if m := e.alive + p.size[v] + p.trans[v]; m > peak {
					peak = m
				}
				cands = append(cands, beamCand{int32(i), v, peak, p.size[v] - e.freedIf(p, v)})
			}
		}
		selectTop(cands, w)
		top := cands[:min(w, len(cands))]
		for i := range beam {
			kids[i] = 0
		}
		for k := range top {
			kids[top[k].from]++
		}
		half = 1 - half
		next := sc.slots[half*w : half*w+len(top)]
		for k := range top {
			c := &top[k]
			e, ne := &beam[c.from], &next[k]
			if kids[c.from]--; kids[c.from] == 0 {
				// The parent's last child: take its buffers over (the
				// child slot's stale ones go to the parent slot).
				ne.rem, e.rem = e.rem, ne.rem
				ne.ready, e.ready = e.ready, ne.ready
				ne.order, e.order = e.order, ne.order
				ne.front, e.front = e.front, ne.front
			} else {
				copy(ne.rem, e.rem)
				copy(ne.ready, e.ready)
				ne.order = append(ne.order[:0], e.order...)
				ne.front = append(ne.front[:0], e.front...)
			}
			ne.front = removeI32(ne.front, c.v)
			ne.order = append(ne.order, c.v)
			ne.alive = e.alive + c.delta
			ne.peak = c.peak
			for _, u := range p.preds[c.v] {
				ne.rem[u]--
			}
			for _, s := range p.sucs[c.v] {
				if ne.ready[s]--; ne.ready[s] == 0 {
					ne.front = insertSorted(ne.front, s)
				}
			}
		}
		beam = next
	}
	sc.cands = cands[:0]
	best := &beam[0]
	for i := 1; i < len(beam); i++ {
		if beam[i].peak < best.peak {
			best = &beam[i]
		}
	}
	return best.order
}

// removeI32 deletes the first occurrence of v from s, keeping order.
func removeI32(s []int32, v int32) []int32 {
	for i, u := range s {
		if u == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// insertSorted inserts v into the ascending slice s; s must have spare
// capacity.
func insertSorted(s []int32, v int32) []int32 {
	i := len(s)
	s = s[:i+1]
	for ; i > 0 && s[i-1] > v; i-- {
		s[i] = s[i-1]
	}
	s[i] = v
	return s
}
