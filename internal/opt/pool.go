package opt

import "magis/internal/graph"

// The allocation diet's recycling half. A rule candidate costs one deep
// graph copy, the rewritten logical graph its rule produces; a candidate
// with an enabled fission region costs one more, the collapsed evaluation
// graph. A candidate with no enabled region evaluates its logical graph
// itself, so it costs no copy of its own (an F-Tree mutation candidate
// that disables the last region costs none at all). The search rejects
// the vast majority of candidates (duplicates, non-improving states)
// within the same expansion that created them. graphPool keeps those
// discarded shells on a free list so graph.CloneInto can reuse their
// backing arrays instead of feeding the allocator.
//
// Ownership is strictly single-goroutine: the search goroutine owns the
// central pool (rule clones in neighbors, recycling in absorb), each
// worker's evaluator owns a private pool for its collapse clones, and
// evalPool.run redistributes shells from the central pool to the workers
// at expansion boundaries, while the workers are quiescent. Nothing here
// needs a lock.
//
// Safety rests on one invariant: a graph enters a pool only when nothing
// can reference it anymore, and enters it once. absorb recycles only
// candidates it just rejected, and only the graphs that candidate owned
// outright: the rewritten G of a rule candidate (F-Tree mutations share
// the parent's G and own nothing) and an EvalG that is not G, which is
// then collapse-fresh. An EvalG that is G is the same shell and is not
// put twice. Accepted states, parents (their G and WL/reach snapshots are
// shared with frontier children), and seeds are never recycled.

// poolCap bounds each free list so a burst of rejected candidates cannot
// pin an unbounded amount of arena memory; overflow falls to the GC.
const poolCap = 128

type graphPool struct {
	free []*graph.Graph
}

// clone returns a deep copy of src, backed by a recycled shell's arrays
// when one is available.
func (p *graphPool) clone(src *graph.Graph) *graph.Graph {
	if n := len(p.free); n > 0 {
		dst := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		src.CloneInto(dst)
		return dst
	}
	return src.Clone()
}

// put adds a dead graph to the free list (nil-safe, drops on overflow).
func (p *graphPool) put(g *graph.Graph) {
	if g == nil || len(p.free) >= poolCap {
		return
	}
	p.free = append(p.free, g)
}

// give moves up to n free shells from p into q.
func (p *graphPool) give(q *graphPool, n int) {
	for n > 0 && len(p.free) > 0 {
		last := len(p.free) - 1
		q.put(p.free[last])
		p.free[last] = nil
		p.free = p.free[:last]
		n--
	}
}
