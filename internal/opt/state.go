package opt

import (
	"fmt"
	"sync"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/sched"
	"magis/internal/sim"
)

// State is one M-State (§3): a computation graph, its F-Tree, the best
// schedule found for it, and the simulation results.
type State struct {
	// G is the logical graph (fission regions NOT materialized).
	G *graph.Graph
	// FT is the fission hierarchy tree over G.
	FT *ftree.Tree
	// EvalG is the evaluation graph: G with enabled regions collapsed.
	EvalG *graph.Graph
	// Sched is the execution order over EvalG.
	Sched sched.Schedule
	// PeakMem is the §2.1 peak memory of (EvalG, Sched), in bytes.
	PeakMem int64
	// Latency is the simulated makespan in seconds (copy-stream overlap
	// included).
	Latency float64
	// Hot is the memory hot-spot set of the schedule.
	Hot graph.Set
	// regions maps regionKey -> region node in EvalG (incremental
	// scheduling anchors).
	regions map[string]graph.NodeID
	// stale marks the F-Tree as needing re-analysis after a graph rewrite.
	stale bool
	// wl is the WL-label snapshot of EvalG, written once when the state is
	// hashed and read-only afterwards; children splice into it instead of
	// re-hashing their whole evaluation graph.
	wl *graph.WLLabels
	// reachHint is the parent expansion's reachability cache, letting this
	// state's own expansion derive its ReachIndex by Rebase instead of a
	// full rebuild. Cleared after first use to keep ancestor chains from
	// accumulating.
	reachHint *reachCache
}

// Summary renders the state's headline measurements for logs and the
// CLI's best-so-far report on interruption.
func (s *State) Summary() string {
	return fmt.Sprintf("peak %.2f GB, latency %.2f ms",
		float64(s.PeakMem)/(1<<30), s.Latency*1e3)
}

// Stats aggregates the optimization-time breakdown reported in Fig. 15.
// The phase timers are worker time: with Workers > 1 they sum the busy
// times of all workers, so their shares are taken of elapsed time ×
// Workers, not of elapsed time. The phases are disjoint: rule application
// (Trans), region collapse, WL hashing, scheduling, simulation, and F-Tree
// construction and re-analysis (FTreeTime, on the search goroutine).
type Stats struct {
	Trans, Sched, Simul, Hash, Filtered int
	TransTime, SchedTime, SimulTime     time.Duration
	HashTime                            time.Duration
	Collapse                            int
	CollapseTime, FTreeTime             time.Duration
	Iterations                          int
	Rescheduled                         int // total ops rescheduled incrementally
	// SchedFallbacks counts incremental reschedules that fell back to a
	// full ScheduleGraph (see sched.Scheduler.Fallbacks).
	SchedFallbacks int
}

// PhaseTime is the sum of every phase timer: the worker time the search
// accounts for.
func (s *Stats) PhaseTime() time.Duration {
	return s.TransTime + s.CollapseTime + s.HashTime + s.SchedTime + s.SimulTime + s.FTreeTime
}

// add accumulates o into s, merging a worker's shard after a parallel
// search.
func (s *Stats) add(o *Stats) {
	s.Trans += o.Trans
	s.Sched += o.Sched
	s.Simul += o.Simul
	s.Hash += o.Hash
	s.Filtered += o.Filtered
	s.TransTime += o.TransTime
	s.SchedTime += o.SchedTime
	s.SimulTime += o.SimulTime
	s.HashTime += o.HashTime
	s.Collapse += o.Collapse
	s.CollapseTime += o.CollapseTime
	s.FTreeTime += o.FTreeTime
	s.Iterations += o.Iterations
	s.Rescheduled += o.Rescheduled
	s.SchedFallbacks += o.SchedFallbacks
}

// reachCache lazily builds one read-only reachability index over a parent
// state's eval graph, shared by every worker of an expansion. sync.Once
// makes the build race-free; the index is immutable after construction, so
// concurrent NW queries need no further locking.
//
// prev, when set, is the grandparent expansion's cache: the build first
// attempts graph.Rebase from it — recomputing only rows downstream of the
// rewrite — and falls back to a full NewReachIndex when the delta is too
// large. prev is cleared after the build so discarded lineages do not pin
// their whole ancestor chain.
type reachCache struct {
	g    *graph.Graph
	prev *reachCache
	once sync.Once
	idx  *graph.ReachIndex
}

func (rc *reachCache) index() *graph.ReachIndex {
	rc.once.Do(func() {
		if p := rc.prev; p != nil && p.idx != nil {
			rc.idx = graph.Rebase(p.idx, p.g, rc.g)
		}
		if rc.idx == nil {
			rc.idx = graph.NewReachIndex(rc.g)
		}
		rc.prev = nil
	})
	return rc.idx
}

// evaluator prices M-States. Each search worker owns one: the scheduler
// and scratch buffers below are reused across candidates and must never be
// shared between goroutines. Read-only inputs (cost model, parent state,
// reach index) are shared across the pool.
type evaluator struct {
	model  *cost.Model
	sc     *sched.Scheduler
	col    collapser
	full   bool // force full rescheduling (ablation)
	strict bool // force full WL hashing (escape hatch / oracle)
	stats  *Stats

	// rc is the expansion-shared reachability cache over the parent's eval
	// graph, set by the search before each expansion.
	rc *reachCache

	// hs and ss are per-evaluator scratch buffers keeping the WL-hash and
	// lifetime-simulation hot paths off the allocator.
	hs graph.HashScratch
	ss sched.Scratch
	// gp recycles discarded graph shells into this evaluator's collapse
	// clones. The primary evaluator's pool doubles as the search's central
	// recycler (rule clones, absorb-time recycling); worker pools are
	// refilled from it at expansion boundaries.
	gp graphPool
}

func newEvaluator(model *cost.Model, full, strict bool, stats *Stats) *evaluator {
	e := &evaluator{
		model:  model,
		sc:     &sched.Scheduler{},
		full:   full,
		strict: strict,
		stats:  stats,
	}
	e.col = collapser{model: model, sc: e.sc, ss: &e.ss, gp: &e.gp}
	return e
}

// collapse fills in EvalG and regions for s (the cheap half of
// evaluation, sufficient for duplicate hashing).
func (e *evaluator) collapse(s *State) error {
	t := time.Now()
	eg, regions, err := e.col.Collapse(s.G, s.FT)
	e.stats.Collapse++
	e.stats.CollapseTime += time.Since(t)
	if err != nil {
		return err
	}
	s.EvalG = eg
	s.regions = regions
	return nil
}

// evaluate fills in EvalG, Sched, PeakMem, Latency, and Hot for s. prev is
// the parent state (nil for the initial one); oldMutated lists the parent
// EvalG nodes touched by the transformation that produced s.
func (e *evaluator) evaluate(s *State, prev *State, oldMutated []graph.NodeID) error {
	if s.EvalG == nil {
		if err := e.collapse(s); err != nil {
			return err
		}
	}
	eg := s.EvalG

	t0 := time.Now()
	if prev == nil || e.full || len(oldMutated) == 0 {
		s.Sched = e.sc.ScheduleGraph(eg)
		e.stats.Rescheduled += len(s.Sched)
	} else {
		var reach *graph.ReachIndex
		if e.rc != nil && e.rc.g == prev.EvalG {
			reach = e.rc.index()
		}
		var n int
		f := e.sc.Fallbacks
		s.Sched, n = e.sc.IncrementalR(prev.EvalG, eg, oldMutated, prev.Sched, reach)
		e.stats.Rescheduled += n
		e.stats.SchedFallbacks += e.sc.Fallbacks - f
	}
	e.stats.Sched++
	e.stats.SchedTime += time.Since(t0)

	t1 := time.Now()
	prof := e.ss.Simulate(eg, s.Sched)
	s.PeakMem = prof.Peak
	s.Hot = prof.Hotspots
	r := sim.Run(eg, s.Sched, sim.Config{
		Model:    e.model,
		NodeCost: regionNodeCost,
	})
	s.Latency = r.Latency
	e.stats.Simul++
	e.stats.SimulTime += time.Since(t1)
	return nil
}

// regionNodeCost prices collapsed fission regions by their analytically
// computed latency; every other node falls back to the cost model. Shared
// by live evaluation and checkpoint restore so both price identically.
func regionNodeCost(n *graph.Node) (float64, bool) {
	if rop, ok := n.Op.(*RegionOp); ok {
		return rop.Latency(), true
	}
	return 0, false
}

// hash returns the Weisfeiler-Lehman hash of the evaluation graph: states
// with identical collapsed structure are duplicates for the search. With a
// parent state available (and strict mode off) the hash splices into the
// parent's label snapshot, re-labelling only nodes whose defining cone the
// rewrite touched; the splice is self-verifying (see graph.WLHashFrom), so
// the result is bit-identical to the full path either way. The snapshot
// for this state's own children is captured as a side effect.
func (e *evaluator) hash(s *State, prev *State) uint64 {
	t := time.Now()
	var h uint64
	if e.strict {
		h = s.EvalG.WLHashScratch(&e.hs)
	} else {
		var pwl *graph.WLLabels
		if prev != nil {
			pwl = prev.wl
		}
		h, s.wl = s.EvalG.WLHashFrom(pwl, &e.hs)
	}
	e.stats.Hash++
	e.stats.HashTime += time.Since(t)
	return h
}
