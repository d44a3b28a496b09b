package opt

// The memory governor: the optimizer's own defense against the resource
// it optimizes. A big frontier of retained States (each holding a graph,
// an F-Tree, a schedule, WL-label snapshots) can grow process RSS until
// the kernel OOM-kills a search whose whole job is respecting memory
// budgets. With Options.MemBudget set, live memory is sampled at every
// expansion boundary — the same consistent point checkpoints snapshot —
// and each over-budget boundary sheds one stage:
//
//	stage 1: evict the worst-scoring half of the frontier (the states
//	         least likely to ever be expanded), dropping their retained
//	         graphs and caches;
//	stage 2: halve MaxSites and MaxCandidates, shrinking every future
//	         expansion's fan-out;
//	stage 3: force a GC, so the next sample reflects what is actually
//	         reachable;
//	stage 4: stop gracefully with StopMemBudget, best-so-far preserved —
//	         the anytime contract, exactly like TimeBudget.
//
// A boundary back under budget resets nothing — shed capacity stays
// shed — but the ladder only advances while over budget, so a search
// that recovers after stage 1 keeps running indefinitely. When the
// budget is never exceeded the governor only reads, keeping governed
// and ungoverned runs bit-identical (the determinism contract tests
// pin down).

import (
	"container/heap"
	"runtime"
	"runtime/metrics"
	"sort"
)

// GovernorStatus reports what the memory governor observed and shed.
type GovernorStatus struct {
	// Budget echoes Options.MemBudget.
	Budget int64 `json:"budget"`
	// Samples counts boundary samples taken.
	Samples int `json:"samples"`
	// PeakBytes is the highest live-memory sample observed.
	PeakBytes int64 `json:"peak_bytes"`
	// EvictedStates counts frontier states shed by stage 1.
	EvictedStates int `json:"evicted_states"`
	// Shrinks counts stage-2 knob halvings.
	Shrinks int `json:"shrinks"`
	// Flushes counts stage-3 forced GC passes.
	Flushes int `json:"flushes"`
	// Stage is the highest ladder stage reached (0 = never over budget).
	Stage int `json:"stage"`
}

type governor struct {
	budget  int64
	used    func() uint64
	status  GovernorStatus
	samples []metrics.Sample
}

func newGovernor(budget int64, used func() uint64) *governor {
	g := &governor{budget: budget, used: used}
	g.status.Budget = budget
	if g.used == nil {
		g.samples = []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		g.used = g.runtimeUsed
	}
	return g
}

// runtimeUsed approximates process RSS from the runtime's own accounting:
// everything the Go runtime holds from the OS minus what it has already
// released back. Reading two counters costs microseconds — noise next to
// an expansion's scheduling and simulation work.
func (g *governor) runtimeUsed() uint64 {
	metrics.Read(g.samples)
	total := g.samples[0].Value.Uint64()
	released := g.samples[1].Value.Uint64()
	if released > total {
		return 0
	}
	return total - released
}

// check samples live memory at an expansion boundary and, when over
// budget, sheds the next ladder stage. It reports true when the search
// must stop (ladder exhausted while still over budget).
func (g *governor) check(l *searchLoop) bool {
	g.status.Samples++
	used := int64(g.used())
	if used > g.status.PeakBytes {
		g.status.PeakBytes = used
	}
	if used <= g.budget {
		return false
	}
	g.status.Stage++
	d := &l.res.Diagnostics
	switch g.status.Stage {
	case 1:
		n := l.evictWorstHalf()
		g.status.EvictedStates += n
		d.Note("mem-governor: evicted worst-scoring frontier states")
	case 2:
		if l.o.MaxSites > 1 {
			l.o.MaxSites = (l.o.MaxSites + 1) / 2
		}
		if l.o.MaxCandidates > 8 {
			l.o.MaxCandidates /= 2
			l.ftOpts.MaxCandidates = l.o.MaxCandidates
		}
		g.status.Shrinks++
		d.Note("mem-governor: shrank MaxSites/MaxCandidates")
	case 3:
		runtime.GC()
		g.status.Flushes++
		d.Note("mem-governor: forced GC")
	default:
		d.Note("mem-governor: still over budget, stopping with best-so-far")
		return true
	}
	return false
}

// evictWorstHalf drops the worst-scoring half of the frontier, keeping at
// least the single best state. Eviction order is the search's own better()
// with stable ties, so it is deterministic for a deterministic frontier.
// Evicted states release their retained WL snapshots; stage 3 forces the
// GC that reclaims them.
func (l *searchLoop) evictWorstHalf() int {
	items := l.q.items
	n := len(items)
	if n <= 1 {
		return 0
	}
	sort.SliceStable(items, func(i, j int) bool { return l.o.better(items[i], items[j], 1) })
	keep := (n + 1) / 2
	for _, s := range items[keep:] {
		s.wl = nil
	}
	for i := keep; i < n; i++ {
		items[i] = nil
	}
	l.q.items = items[:keep]
	heap.Init(l.q)
	return n - keep
}
