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
	// With no enabled region it is G itself, and with regions a private
	// copy; either way it is read-only once the state is evaluated.
	EvalG *graph.Graph
	// Sched is the execution order over EvalG.
	Sched sched.Schedule
	// PeakMem is the §2.1 peak memory of (EvalG, Sched), in bytes.
	PeakMem int64
	// Latency is the simulated makespan in seconds (copy-stream overlap
	// included).
	Latency float64
	// Hot is the memory hot-spot set of the schedule, nil until the state
	// is expanded (see evaluator.hot).
	Hot graph.Set
	// regions maps regionKey -> region node in EvalG (incremental
	// scheduling anchors); nil when no region is enabled.
	regions map[string]graph.NodeID
	// stale marks the F-Tree as needing re-analysis after a graph rewrite.
	stale bool
	// wl is the WL-label snapshot of EvalG, written once when the state is
	// hashed and read-only afterwards; children splice into it instead of
	// re-hashing their whole evaluation graph.
	wl *graph.WLLabels
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
// (Trans), region collapse, WL hashing, scheduling, simulation (candidate
// pricing, plus the hot-spot set of each popped state), and F-Tree
// construction and re-analysis (FTreeTime: the search goroutine's wall
// time in them, while the evaluation workers are idle).
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
type reachCache struct {
	g    *graph.Graph
	once sync.Once
	idx  *graph.ReachIndex
}

func (rc *reachCache) index() *graph.ReachIndex {
	rc.once.Do(func() { rc.idx = graph.NewReachIndex(rc.g) })
	return rc.idx
}

// evaluator prices M-States. Each search worker owns one: the scheduler
// and scratch buffers below are reused across candidates and must never be
// shared between goroutines. Read-only inputs (cost model, parent state,
// reach index) are shared across the pool.
type evaluator struct {
	model *cost.Model
	sc    *sched.Scheduler
	col   collapser
	stats *Stats

	// rc is the expansion-shared reachability cache over the parent's eval
	// graph, set by the search before each expansion.
	rc *reachCache

	// hs and ss are per-evaluator scratch buffers keeping the WL-hash and
	// lifetime-simulation hot paths off the allocator.
	hs graph.HashScratch
	ss sched.Scratch
}

func newEvaluator(model *cost.Model, stats *Stats) *evaluator {
	e := &evaluator{
		model: model,
		sc:    &sched.Scheduler{},
		stats: stats,
	}
	e.col = collapser{model: model, sc: e.sc, ss: &e.ss}
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

// evaluate fills in EvalG, Sched, PeakMem, and Latency for s; Hot stays
// nil until the state is expanded (see hot). prev is the parent state (nil
// for the initial one); oldMutated lists the parent EvalG nodes touched by
// the transformation that produced s.
func (e *evaluator) evaluate(s *State, prev *State, oldMutated []graph.NodeID) error {
	if s.EvalG == nil {
		if err := e.collapse(s); err != nil {
			return err
		}
	}
	eg := s.EvalG

	t0 := time.Now()
	if prev == nil || len(oldMutated) == 0 {
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
	e.price(s)
	e.stats.Simul++
	e.stats.SimulTime += time.Since(t1)
	return nil
}

// price fills in PeakMem and Latency for s from its EvalG and Sched: the
// two numbers the search ranks a candidate by. Shared by live evaluation
// and checkpoint restore so both price identically. Collapsed fission
// regions price themselves (RegionOp is sim.SelfCosted).
func (e *evaluator) price(s *State) {
	s.PeakMem = e.ss.PeakOnly(s.EvalG, s.Sched)
	s.Latency = sim.Latency(s.EvalG, s.Sched, sim.Config{Model: e.model})
}

// hot fills in s.Hot, the hot-spot set of s's schedule, unless it is
// already known. Only an expanded state's hot set is read (to filter rule
// sites and re-analyze the F-Tree), so evaluation leaves it nil and the
// search derives it here once per pop rather than once per candidate.
func (e *evaluator) hot(s *State) {
	if s.Hot != nil {
		return
	}
	t := time.Now()
	s.Hot = e.ss.Simulate(s.EvalG, s.Sched).Hotspots
	e.stats.SimulTime += time.Since(t)
}

// hash returns the Weisfeiler-Lehman hash of the evaluation graph: states
// with identical collapsed structure are duplicates for the search. With a
// parent state available the hash splices into the parent's label
// snapshot, re-labelling only nodes whose defining cone the rewrite
// touched; the splice is self-verifying (see graph.WLHashFrom), so the
// result is bit-identical to graph.WLHashScratch. The snapshot for this
// state's own children is captured as a side effect.
func (e *evaluator) hash(s *State, prev *State) uint64 {
	t := time.Now()
	var pwl *graph.WLLabels
	if prev != nil {
		pwl = prev.wl
	}
	h, wl := s.EvalG.WLHashFrom(pwl, &e.hs)
	s.wl = wl
	e.stats.Hash++
	e.stats.HashTime += time.Since(t)
	return h
}
