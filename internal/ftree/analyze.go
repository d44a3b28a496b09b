package ftree

import (
	"slices"
	"sync"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
	"magis/internal/sched"
)

// Algorithm 1 for one D-Graph component, on dense component-local
// indices. Local index i stands for the component's i-th graph node in
// ascending ID order, so ascending local order is ascending ID order.
// Every table below is sized by the component and reused across
// components and builds: no pass costs more than O(|component|), and none
// touches the graph's whole ID range.

// scratch is one Build's reusable analysis state.
type scratch struct {
	loc   graph.IDTable  // graph node -> local index
	nodes []graph.NodeID // local index -> graph node
	// in[inOff[i]:inOff[i+1]] are the local producers of i, duplicates
	// included; out/outOff the local consumers.
	inOff, in   []int32
	outOff, out []int32
	at          []int32 // per-node counters: CSR fill cursors, Kahn in-degrees
	dead        []bool  // secondary entries, pruned from the dominator analysis
	seen        graph.IDTable
	stack       []int32
	// The pruned component in a topological order: topo maps a position
	// to its local index, pos the reverse (-1 for dead nodes). predOff/pred
	// hold each position's predecessor positions, idom its immediate
	// dominator and kidOff/kid its dominator-tree children.
	topo, pos      []int32
	predOff, pred  []int32
	idom           []int32
	kidOff, kid    []int32
	own, sub       []int64
	score          []float64
	bucket, nested []int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with length n, reusing its storage when large enough.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candidates runs Algorithm 1 on one component: it builds the component's
// dominator tree with the secondary entries pruned, scores memory heat,
// buckets the scores into opt's L levels and resolves each level's
// innermost dominators into fission candidates, in level order and, within
// a level, in ascending dominator ID.
func (sc *scratch) candidates(g *graph.Graph, d *dgraph.DGraph, comp dgraph.Component, hot graph.Set, opt Options) []cand {
	sc.nodes = sc.nodes[:0]
	for i, dn := range comp {
		if i == 0 || dn.Node != comp[i-1].Node {
			sc.nodes = append(sc.nodes, dn.Node)
		}
	}
	if len(sc.nodes) < 2 {
		return nil
	}
	sc.edges(g)
	sc.prune()
	sc.dominators()
	smax := sc.heat(g, hot, opt.NaiveFission)
	if smax <= 0 {
		return nil
	}
	L := opt.maxLevel()
	var out []cand
	for i := 1; i <= L; i++ {
		lo, hi := float64(i)/float64(L), float64(i+1)/float64(L)
		sc.bucket = sc.bucket[:0]
		for _, p := range sc.pos {
			if p < 0 {
				continue // a pruned entry
			}
			if r := sc.score[p] / smax; r >= lo && r < hi {
				sc.bucket = append(sc.bucket, p)
			}
		}
		// Select dominators whose dominated set contains no other bucket
		// member (Algorithm 1 line 11): walk each member's dominator chain
		// marking proper ancestors as non-innermost.
		sc.seen.Reset(len(sc.topo))
		for _, w := range sc.bucket {
			for p := sc.idom[w]; p >= 0; p = sc.idom[p] {
				if _, ok := sc.seen.Get(graph.NodeID(p)); ok {
					break
				}
				sc.seen.Put(graph.NodeID(p), 0)
			}
		}
		for _, p := range sc.bucket {
			if _, ok := sc.seen.Get(graph.NodeID(p)); ok {
				continue
			}
			s := sc.dominated(p)
			if len(s) == 0 {
				continue
			}
			tr, err := fission.Resolve(g, d, comp, s, 1)
			if err != nil || tr.MaxParts(g) < 2 {
				continue
			}
			out = append(out, cand{&Node{T: tr, N: 1, Score: sc.score[p], Level: i}, sc.nodes[sc.topo[p]]})
		}
	}
	return out
}

// edges indexes sc.nodes and records the component's internal edges in
// both directions.
func (sc *scratch) edges(g *graph.Graph) {
	k := len(sc.nodes)
	sc.loc.Reset(int(g.NextID()))
	for i, v := range sc.nodes {
		sc.loc.Put(v, int32(i))
	}
	sc.inOff = append(sc.inOff[:0], 0)
	sc.in = sc.in[:0]
	sc.outOff = resize(sc.outOff, k+1)
	clear(sc.outOff)
	for _, v := range sc.nodes {
		for _, u := range g.Node(v).Ins {
			if j, ok := sc.loc.Get(u); ok {
				sc.in = append(sc.in, j)
				sc.outOff[j+1]++
			}
		}
		sc.inOff = append(sc.inOff, int32(len(sc.in)))
	}
	for i := range k {
		sc.outOff[i+1] += sc.outOff[i]
	}
	sc.out = resize(sc.out, len(sc.in))
	sc.at = append(sc.at[:0], sc.outOff[:k]...)
	for i := range k {
		for _, j := range sc.in[sc.inOff[i]:sc.inOff[i+1]] {
			sc.out[sc.at[j]] = int32(i)
			sc.at[j]++
		}
	}
}

// prune marks every entry of the component but the main one dead. §2.1:
// the dominator tree takes THE input tensor as entry. Secondary entries
// (labels, positions, sliced side inputs) must not break domination, so
// the tree is computed with them and their edges removed; the nodes
// themselves remain available as sliced inputs of candidates. The main
// entry is the one with the most descendants, the lowest ID on a tie.
func (sc *scratch) prune() {
	k := len(sc.nodes)
	sc.dead = resize(sc.dead, k)
	clear(sc.dead)
	entry := func(i int32) bool { return sc.inOff[i] == sc.inOff[i+1] }
	entries := 0
	for i := range int32(k) {
		if entry(i) {
			entries++
		}
	}
	if entries < 2 {
		return
	}
	main, best := int32(-1), -1
	for i := range int32(k) {
		if !entry(i) {
			continue
		}
		if n := sc.descendants(i); n > best {
			main, best = i, n
		}
	}
	for i := range int32(k) {
		sc.dead[i] = i != main && entry(i)
	}
}

// descendants counts the strict descendants of local node i.
func (sc *scratch) descendants(i int32) int {
	sc.seen.Reset(len(sc.nodes))
	sc.stack = append(sc.stack[:0], i)
	n := 0
	for len(sc.stack) > 0 {
		x := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, y := range sc.out[sc.outOff[x]:sc.outOff[x+1]] {
			if _, ok := sc.seen.Get(graph.NodeID(y)); !ok {
				sc.seen.Put(graph.NodeID(y), 0)
				sc.stack = append(sc.stack, y)
				n++
			}
		}
	}
	return n
}

// dominators orders the live nodes topologically (Kahn) and solves their
// immediate dominators with graph.Idoms. The dominator tree of a DAG does
// not depend on which topological order the solver runs over.
func (sc *scratch) dominators() {
	k := len(sc.nodes)
	sc.at = resize(sc.at, k)
	indeg := sc.at
	sc.topo = sc.topo[:0]
	live := 0
	for i := range k {
		indeg[i] = 0
		if sc.dead[i] {
			continue
		}
		live++
		for _, j := range sc.in[sc.inOff[i]:sc.inOff[i+1]] {
			if !sc.dead[j] {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			sc.topo = append(sc.topo, int32(i))
		}
	}
	for h := 0; h < len(sc.topo); h++ {
		x := sc.topo[h]
		for _, y := range sc.out[sc.outOff[x]:sc.outOff[x+1]] {
			if indeg[y]--; indeg[y] == 0 {
				sc.topo = append(sc.topo, y)
			}
		}
	}
	if len(sc.topo) != live {
		panic("ftree: cycle in a D-Graph component")
	}
	sc.pos = resize(sc.pos, k)
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	for p, i := range sc.topo {
		sc.pos[i] = int32(p)
	}
	n := len(sc.topo)
	sc.predOff = append(sc.predOff[:0], 0)
	sc.pred = sc.pred[:0]
	for _, i := range sc.topo {
		for _, j := range sc.in[sc.inOff[i]:sc.inOff[i+1]] {
			if !sc.dead[j] {
				sc.pred = append(sc.pred, sc.pos[j])
			}
		}
		sc.predOff = append(sc.predOff, int32(len(sc.pred)))
	}
	sc.idom = resize(sc.idom, n)
	graph.Idoms(sc.predOff, sc.pred, sc.idom)
	// Children lists, by counting sort on the parent.
	sc.kidOff = resize(sc.kidOff, n+1)
	clear(sc.kidOff)
	for _, q := range sc.idom {
		if q >= 0 {
			sc.kidOff[q+1]++
		}
	}
	for p := range n {
		sc.kidOff[p+1] += sc.kidOff[p]
	}
	sc.kid = resize(sc.kid, int(sc.kidOff[n]))
	sc.at = append(sc.at[:0], sc.kidOff[:n]...)
	for p, q := range sc.idom {
		if q >= 0 {
			sc.kid[sc.at[q]] = int32(p)
			sc.at[q]++
		}
	}
}

// heat computes Equation (3)/(4)'s memory-heat score of every live node
// in one pass over the dominator tree and returns the largest:
//
//	heat(v) = sum of hot-spot bytes strictly dominated by v
//	score(v) = (1 - 1/n) * heat(v)  with n = 2
//
// The exact Equation (4) additionally subtracts the candidate's input
// residency; computing inps(des(v)) for every node is Theta(V^2), so the
// input term is deferred to candidate validation (fission.Resolve) and the
// optimizer's measured evaluation, which subsume it. With naive = true
// every node with a non-trivial dominated set scores 1 (the naive-fission
// ablation).
func (sc *scratch) heat(g *graph.Graph, hot graph.Set, naive bool) float64 {
	n := len(sc.topo)
	sc.own = resize(sc.own, n)
	sc.sub = resize(sc.sub, n)
	sc.score = resize(sc.score, n)
	for p, i := range sc.topo {
		sc.own[p] = 0
		if v := sc.nodes[i]; hot.Has(v) {
			sc.own[p] = sched.OutDeviceBytes(g.Node(v))
		}
		sc.sub[p] = sc.own[p]
	}
	// A dominator precedes its tree children, so a backward pass folds
	// every sub-tree into its root.
	for p := n - 1; p >= 0; p-- {
		if q := sc.idom[p]; q >= 0 {
			sc.sub[q] += sc.sub[p]
		}
	}
	smax := 0.0
	for p := range n {
		switch {
		case sc.kidOff[p] == sc.kidOff[p+1]:
			sc.score[p] = 0
		case naive:
			sc.score[p] = 1
		default:
			sc.score[p] = 0.5 * float64(sc.sub[p]-sc.own[p])
		}
		smax = max(smax, sc.score[p])
	}
	return smax
}

// dominated returns the graph nodes strictly dominated by position p,
// ascending.
func (sc *scratch) dominated(p int32) graph.Set {
	sc.nested = sc.nested[:0]
	sc.stack = append(sc.stack[:0], sc.kid[sc.kidOff[p]:sc.kidOff[p+1]]...)
	for len(sc.stack) > 0 {
		q := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.nested = append(sc.nested, sc.topo[q])
		sc.stack = append(sc.stack, sc.kid[sc.kidOff[q]:sc.kidOff[q+1]]...)
	}
	slices.Sort(sc.nested)
	s := make(graph.Set, len(sc.nested))
	for j, i := range sc.nested {
		s[j] = sc.nodes[i]
	}
	return s
}
