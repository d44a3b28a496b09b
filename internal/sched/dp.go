package sched

import (
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

	// scratch is reused across scheduling calls; a Scheduler is therefore
	// not safe for concurrent use (the search gives each worker its own).
	scratch Scratch

	// Reused work storage. The beam scheduler prices every fission region
	// of every search candidate, so its per-step state lives in slots that
	// persist across calls instead of per-entry allocations.
	pb    problem
	topo  graph.TopoScratch
	slots []beamEntry
	cands []beamCand
	kids  []int32
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
	n := g.Len()
	switch {
	case n == 0:
		return nil
	case n == 1:
		return Schedule{g.NodeIDs()[0]}
	case n <= sc.maxExact():
		return sc.exact(g)
	case n <= sc.beamLimit():
		return sc.beam(g, sc.beamWidth())
	default:
		return sc.beam(g, 1)
	}
}

// problem is the indexed form of a scheduling sub-problem. All per-node
// tables and both adjacency arenas are reused across calls.
type problem struct {
	ids      []graph.NodeID // index -> node, topo order
	idx      []int32        // NodeID -> index
	preds    [][]int32      // distinct predecessors, arena-backed
	sucs     [][]int32      // distinct consumers, arena-backed
	size     []int64
	trans    []int64
	hasCons  []bool
	predMask []uint64 // exact DP only, n <= 64
	sucMask  []uint64

	predArena, sucArena, cnt []int32
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

// problemFor (re)builds sc.pb for g. The result is valid until the next
// problemFor call on the same Scheduler.
func (sc *Scheduler) problemFor(g *graph.Graph) *problem {
	p := &sc.pb
	order, err := g.TopoInto(&sc.topo)
	if err != nil {
		panic(err.Error())
	}
	n := len(order)
	if cap(p.ids) < n {
		p.ids = make([]graph.NodeID, n)
	} else {
		p.ids = p.ids[:n]
	}
	copy(p.ids, order)
	maxID := 0
	for _, v := range p.ids {
		if int(v) > maxID {
			maxID = int(v)
		}
	}
	p.idx = ensureI32(p.idx, maxID+1)
	for i, v := range p.ids {
		p.idx[v] = int32(i)
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
	if cap(p.hasCons) < n {
		p.hasCons = make([]bool, n)
	} else {
		p.hasCons = p.hasCons[:n]
	}
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
		p.hasCons[i] = g.SucEdges(v) > 0
		base := len(arena)
	ins:
		for _, pr := range node.Ins {
			j := p.idx[pr]
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
	off := int32(0)
	for u := 0; u < n; u++ {
		p.sucs[u] = sa[off : off : off+cnt[u]]
		off += cnt[u]
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
func (sc *Scheduler) exact(g *graph.Graph) Schedule {
	// Upper bound from greedy to prune the DP — computed first because the
	// greedy beam shares sc.pb.
	greedy := sc.beam(g, 1)
	bound := sc.scratch.PeakOnly(g, greedy)

	p := sc.problemFor(g)
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
	order := make(Schedule, n)
	for mask := full; mask != 0; {
		e := memo[mask]
		order[popcount64(mask)-1] = p.ids[e.last]
		mask = e.prev
	}
	return order
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
func (sc *Scheduler) beam(g *graph.Graph, w int) Schedule {
	p := sc.problemFor(g)
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
	order := make(Schedule, n)
	for i, v := range best.order {
		order[i] = p.ids[v]
	}
	return order
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

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
