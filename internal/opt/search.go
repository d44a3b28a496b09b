package opt

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/rules"
	"magis/internal/sched"
	"magis/internal/sim"
)

// Mode selects which objective is constrained and which is minimized.
type Mode int

const (
	// LatencyUnderMemory minimizes latency subject to a memory limit
	// (Algorithm 3 as printed).
	LatencyUnderMemory Mode = iota
	// MemoryUnderLatency minimizes peak memory subject to a latency limit.
	MemoryUnderLatency
)

// Options configures M-Optimizer.
type Options struct {
	// Mode picks the optimization direction.
	Mode Mode
	// MemLimit is M in bytes (LatencyUnderMemory).
	MemLimit int64
	// LatencyLimit in seconds (MemoryUnderLatency).
	LatencyLimit float64
	// MaxLevel is the F-Tree max level L (default 4).
	MaxLevel int
	// MaxCandidates caps F-Tree size (default 64).
	MaxCandidates int
	// MaxSites caps rule applications per rule per expansion (default 8).
	MaxSites int
	// TimeBudget bounds the search wall-clock (default 3s). It is layered
	// on top of the caller's context as a deadline; set it negative to
	// disable the budget and rely solely on the context passed to
	// OptimizeCtx.
	TimeBudget time.Duration
	// MaxIterations bounds queue pops (default 10000).
	MaxIterations int
	// MemBudget is a soft RSS budget in bytes for the whole process while
	// this search runs (0 disables). Live memory is sampled at expansion
	// boundaries via runtime/metrics; past the budget the search sheds in
	// stages — evicting the worst-scoring frontier states, shrinking
	// MaxSites and MaxCandidates, forcing a GC — and only stops
	// (Result.Stopped = StopMemBudget, best-so-far preserved exactly like
	// TimeBudget) when still over budget after the whole ladder. A run
	// whose governor never triggers is bit-identical to one with
	// MemBudget = 0; see Result.Governor for what happened.
	MemBudget int64
	// memUsed overrides the governor's live-memory sampler (tests only).
	memUsed func() uint64
	// CheckInvariants runs graph.Validate on every candidate that passes
	// the duplicate filter and Schedule.Validate on every evaluated one,
	// rejecting (and diagnosing) candidates a buggy rule corrupted. Tests
	// set it unconditionally; production callers pay ~O(V+E) per
	// candidate for it.
	CheckInvariants bool
	// QuarantineAfter disables a rule after this many consecutive
	// failures — recovered panics or invariant violations — with no
	// intervening success (default 3).
	QuarantineAfter int
	// Workers is the number of goroutines evaluating an expansion's
	// candidates in parallel (default runtime.GOMAXPROCS(0)). 1 keeps the
	// fully sequential pipeline. The search result is deterministic for
	// any value: candidates merge back in generation order, so best-state
	// selection, History, and queue contents are identical across worker
	// counts (only the time-stamped fields and the duplicated-work
	// portions of Stats vary).
	Workers int
	// Ablation switches (§7.2.5).
	NaiveFission    bool
	NaiveSchedRules bool
	// DisableFission removes F-Trans from the search space entirely,
	// leaving a pure scheduling-rule optimizer (the Fig. 2 swap-only
	// comparison point).
	DisableFission bool
	// Rules overrides the rule catalog (default rules.All()). Checkpoints
	// persist rules by Name(), so a custom catalog is resumable only when
	// every rule is part of rules.All().
	Rules []rules.Rule
	// Checkpoint enables crash-safe snapshots of the search state (set
	// Path). See the Checkpoint type for cadence knobs and Resume for the
	// recovery path.
	Checkpoint Checkpoint
	// OnExpansion, when set, is called on the search goroutine after every
	// completed expansion with the total expansion count. Service layers
	// use it as a liveness signal for stall watchdogs; it must be fast and
	// must not retain references into the search.
	OnExpansion func(completed int)
}

// ResolveWorkers returns the number of workers a search with
// Options.Workers = n runs: runtime.GOMAXPROCS(0) for 0, and at least 1.
func ResolveWorkers(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

func (o *Options) defaults() {
	if o.MaxLevel == 0 {
		o.MaxLevel = 4
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 64
	}
	if o.MaxSites == 0 {
		o.MaxSites = 8
	}
	o.Workers = ResolveWorkers(o.Workers)
	if o.TimeBudget == 0 {
		o.TimeBudget = 3 * time.Second
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10000
	}
	if o.QuarantineAfter == 0 {
		o.QuarantineAfter = 3
	}
	if o.Rules == nil {
		o.Rules = rules.All()
	}
	if o.Mode == LatencyUnderMemory && o.MemLimit == 0 {
		o.MemLimit = math.MaxInt64
	}
	if o.Mode == MemoryUnderLatency && o.LatencyLimit == 0 {
		o.LatencyLimit = math.Inf(1)
	}
}

// pushDelta is δ, the relaxation Algorithm 3 applies when deciding whether
// an evaluated candidate joins the frontier.
const pushDelta = 1.1

// better implements BetterThan (Algorithm 3 lines 1-2) for both modes,
// comparing (constrained objective clamped at the limit, free objective)
// lexicographically with b's side relaxed by delta.
func (o *Options) better(a, b *State, delta float64) bool {
	switch o.Mode {
	case MemoryUnderLatency:
		al := math.Max(a.Latency, o.LatencyLimit)
		bl := math.Max(delta*b.Latency, o.LatencyLimit)
		if al != bl {
			return al < bl
		}
		return float64(a.PeakMem) < delta*float64(b.PeakMem)
	default:
		am := math.Max(float64(a.PeakMem), float64(o.MemLimit))
		bm := math.Max(delta*float64(b.PeakMem), float64(o.MemLimit))
		if am != bm {
			return am < bm
		}
		return a.Latency < delta*b.Latency
	}
}

// HistoryPoint records the best objective values over elapsed time
// (Fig. 13's convergence curves).
type HistoryPoint struct {
	Elapsed time.Duration
	PeakMem int64
	Latency float64
}

// StopReason explains why an anytime search returned.
type StopReason int

const (
	// StopUnknown is the zero value; a populated Result never carries it.
	StopUnknown StopReason = iota
	// StopConverged: the candidate queue drained — every reachable
	// non-dominated state was explored.
	StopConverged
	// StopDeadline: the TimeBudget or the context deadline expired.
	StopDeadline
	// StopCancelled: the caller cancelled the context.
	StopCancelled
	// StopExhausted: MaxIterations queue pops were spent.
	StopExhausted
	// StopMemBudget: Options.MemBudget was exceeded and the shed ladder
	// (frontier eviction, knob shrinking, forced GC) could not get
	// back under it; the best state found so far is returned.
	StopMemBudget
)

// String renders the reason for logs and CLI summaries.
func (s StopReason) String() string {
	switch s {
	case StopConverged:
		return "converged"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	case StopExhausted:
		return "exhausted"
	case StopMemBudget:
		return "mem-budget"
	default:
		return "unknown"
	}
}

// stopReason maps a context error to its StopReason.
func stopReason(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// Result is the outcome of one optimization run.
type Result struct {
	// Best is the best M-State found.
	Best *State
	// Baseline is the unoptimized input: original graph, plain topological
	// order with free-after-last-use (the PyTorch baseline of §7.1).
	Baseline *State
	// Stats is the Fig. 15 time breakdown.
	Stats Stats
	// History tracks best-so-far improvements.
	History []HistoryPoint
	// Stopped is why the search ended. The search is anytime: every
	// reason still returns the best state found so far.
	Stopped StopReason
	// Diagnostics records contained failures: per-rule panic and
	// quarantine counters and the first recovered panics.
	Diagnostics Diagnostics
	// Checkpoint reports the checkpointing activity of the run (nil when
	// Options.Checkpoint was not enabled). Write failures degrade the
	// search to uncheckpointed rather than aborting it; the first error is
	// recorded here.
	Checkpoint *CheckpointStatus
	// Governor reports the memory governor's activity (nil when
	// Options.MemBudget was not set).
	Governor *GovernorStatus
}

type stateQueue struct {
	items []*State
	opts  *Options
}

func (q *stateQueue) Len() int           { return len(q.items) }
func (q *stateQueue) Less(i, j int) bool { return q.opts.better(q.items[i], q.items[j], 1) }
func (q *stateQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *stateQueue) Push(x interface{}) { q.items = append(q.items, x.(*State)) }
func (q *stateQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

// Baseline evaluates g unoptimized: program-order schedule with basic
// memory saving (tensors freed after last use), no transformations.
func Baseline(g *graph.Graph, model *cost.Model) *State {
	order := sched.Schedule(g.Topo())
	prof := sched.Simulate(g, order)
	return &State{
		G:       g,
		EvalG:   g,
		Sched:   order,
		PeakMem: prof.Peak,
		Latency: sim.Latency(g, order, sim.Config{Model: model}),
		Hot:     prof.Hotspots,
	}
}

// Optimize runs M-Optimizer's greedy best-first search (Algorithm 3) under
// the default background context: only TimeBudget and MaxIterations bound
// the run.
func Optimize(g *graph.Graph, model *cost.Model, o Options) (*Result, error) {
	return OptimizeCtx(context.Background(), g, model, o)
}

// OptimizeCtx is Optimize with cooperative cancellation: the context is
// checked at every queue pop and between candidate evaluations, so
// cancelling it (or its deadline expiring) returns the best state found so
// far within roughly one candidate evaluation. TimeBudget is layered on
// top of ctx as a deadline; whichever fires first stops the search.
//
// The search is anytime and degrades gracefully: once the initial
// evaluation succeeds it never returns an error. Per-candidate panics are
// contained (see RuleError), repeatedly failing rules are quarantined, and
// Result.Stopped plus Result.Diagnostics report how the run ended.
func OptimizeCtx(ctx context.Context, g *graph.Graph, model *cost.Model, o Options) (*Result, error) {
	return OptimizeSeeded(ctx, g, model, o)
}

// OptimizeSeeded is OptimizeCtx with warm-start seeds: additional initial
// frontier states replayed from cached plans (see PlanRecord). Each seed
// is validated and re-evaluated by the live pipeline before it may enter
// the frontier; a seed that fails anywhere — invalid graph, stale fission
// choices, a panic during evaluation — is dropped with a diagnostic and
// the search proceeds from whatever seeds survived (possibly none, i.e. a
// cold start). Seeds participate in best-state selection immediately, so
// an exact replay of a good plan bounds the result from below.
func OptimizeSeeded(ctx context.Context, g *graph.Graph, model *cost.Model, o Options, seeds ...*State) (*Result, error) {
	o.defaults()
	l, err := newSearch(g, model, &o)
	if err != nil {
		return nil, err
	}
	if err := l.begin(g, seeds); err != nil {
		return nil, err
	}
	l.run(ctx)
	return l.res, nil
}

// begin evaluates a copy of g as the initial state, builds its F-Tree,
// and admits it and then the warm-start seeds into the frontier.
func (l *searchLoop) begin(g *graph.Graph, seeds []*State) error {
	o, res, ev := l.o, l.res, l.pool.primary()
	init := &State{G: g.Clone()}
	if o.CheckInvariants {
		if err := graph.Validate(init.G); err != nil {
			return fmt.Errorf("%w: input graph: %w", ErrInitialEval, err)
		}
	}
	if err := guard("init", "initial evaluation", func() error {
		return ev.evaluate(init, nil, nil)
	}); err != nil {
		return fmt.Errorf("%w: %w", ErrInitialEval, err)
	}
	if o.DisableFission {
		init.FT = &ftree.Tree{}
	} else if err := guard(ftreeRuleName, "initial F-Tree build", func() error {
		ev.hot(init)
		t := time.Now()
		init.FT = ftree.Build(init.G, init.Hot, l.ftOpts)
		res.Stats.FTreeTime += time.Since(t)
		return nil
	}); err != nil {
		// Degrade to a fission-free search instead of dying.
		res.Diagnostics.notePanic(err, l.quar)
		init.FT = &ftree.Tree{}
	}

	l.best = init
	res.History = append(res.History, HistoryPoint{l.elapsed(), init.PeakMem, init.Latency})
	heap.Push(l.q, init)
	l.seen[ev.hash(init, nil)] = true
	for _, sd := range seeds {
		l.seed(sd)
	}
	return nil
}

// newSearch builds the search both OptimizeSeeded and Resume run: the
// guarded baseline of the input graph, the evaluation pool, and an empty
// frontier, duplicate filter and quarantine for the caller to fill. Its
// clock starts now.
func newSearch(input *graph.Graph, model *cost.Model, o *Options) (*searchLoop, error) {
	res := &Result{}
	if err := guard("init", "baseline evaluation", func() error {
		res.Baseline = Baseline(input, model)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInitialEval, err)
	}
	return &searchLoop{
		o:     o,
		res:   res,
		quar:  newQuarantine(o.QuarantineAfter),
		seen:  make(map[uint64]bool),
		q:     &stateQueue{opts: o},
		start: time.Now(),
		input: input,
		model: model,
		pool:  newEvalPool(o.Workers, model, &res.Stats),
		ftOpts: ftree.Options{
			MaxLevel:      o.MaxLevel,
			MaxCandidates: o.MaxCandidates,
			NaiveFission:  o.NaiveFission,
		},
	}, nil
}

// warmRuleName is the pseudo-rule seed replay failures are attributed to
// in Diagnostics (and, like any rule, quarantined after repeated failure).
const warmRuleName = "WarmStart"

// seed admits one warm-start state into the initial frontier. Everything
// runs under guard: a seed can only ever be dropped, never corrupt the
// search. Duplicate seeds (or a seed identical to the init state) are
// filtered by the same WL-hash dedup the search uses.
func (l *searchLoop) seed(sd *State) {
	if sd == nil || sd.G == nil {
		return
	}
	ev := l.pool.primary()
	if err := guard(warmRuleName, "seed graph validation", func() error {
		return graph.Validate(sd.G)
	}); err != nil {
		l.res.Diagnostics.notePanic(err, l.quar)
		return
	}
	if err := guard(warmRuleName, "seed evaluation", func() error {
		return ev.evaluate(sd, nil, nil)
	}); err != nil {
		l.res.Diagnostics.notePanic(err, l.quar)
		return
	}
	h := ev.hash(sd, nil)
	if l.seen[h] {
		l.res.Stats.Filtered++
		return
	}
	l.seen[h] = true
	heap.Push(l.q, sd)
	l.res.Diagnostics.rule(warmRuleName).Evaluated++
	if l.o.better(sd, l.best, 1) {
		l.best = sd
		l.res.History = append(l.res.History,
			HistoryPoint{l.elapsed(), sd.PeakMem, sd.Latency})
	}
}

// searchLoop is the order-sensitive half of the search: everything below
// runs on the search goroutine only, in candidate-index order, regardless
// of Options.Workers. It is also the unit of checkpointing — a snapshot at
// an expansion boundary captures exactly the fields below (plus the worker
// pool's stats shards, folded in), and Resume reconstructs them.
type searchLoop struct {
	o     *Options
	res   *Result
	quar  *quarantine
	seen  map[uint64]bool
	q     *stateQueue
	best  *State
	start time.Time
	// prior is the wall-clock consumed by earlier incarnations of this
	// search (zero for a fresh run); elapsed() adds it to the current
	// incarnation's clock for history stamps and budget accounting.
	prior time.Duration
	// input is the original input graph, embedded in checkpoints so Resume
	// can re-derive the baseline.
	input  *graph.Graph
	model  *cost.Model
	pool   *evalPool
	ftOpts ftree.Options
}

// elapsed is the total search wall-clock across incarnations.
func (l *searchLoop) elapsed() time.Duration { return l.prior + time.Since(l.start) }

// run executes the search loop until convergence, budget exhaustion, or
// cancellation, then finalizes the result. The remaining TimeBudget (total
// minus prior incarnations) is layered on top of ctx as a deadline.
func (l *searchLoop) run(ctx context.Context) {
	o, res, pool := l.o, l.res, l.pool
	ev := pool.primary()
	if ctx == nil {
		ctx = context.Background()
	}
	if o.TimeBudget > 0 {
		remaining := o.TimeBudget - l.prior
		if remaining <= 0 {
			res.Stopped = StopDeadline
			pool.flush(&res.Stats)
			res.Best = l.best
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, remaining)
		defer cancel()
	}
	var ck *checkpointer
	if o.Checkpoint.Path != "" {
		ck = newCheckpointer(o.Checkpoint)
		res.Checkpoint = &ck.status
	}
	var gov *governor
	if o.MemBudget > 0 {
		gov = newGovernor(o.MemBudget, o.memUsed)
		res.Governor = &gov.status
	}
	// tainted marks an exit in the middle of an expansion: the live state
	// has absorbed only a prefix of the expansion's candidates, so it is
	// NOT a valid resume point; the last boundary snapshot is.
	tainted := false
	res.Stopped = StopConverged
	for l.q.Len() > 0 {
		if ck != nil {
			// Expansion boundary: the state right now is a consistent
			// prefix of the run. Snapshot it (and flush to disk on the
			// configured cadence).
			ck.boundary(l)
		}
		if err := ctx.Err(); err != nil {
			res.Stopped = stopReason(err)
			break
		}
		if res.Stats.Iterations >= o.MaxIterations {
			res.Stopped = StopExhausted
			break
		}
		// Memory governor: sample at the expansion boundary (the state is
		// consistent and the checkpoint above is already taken) and shed
		// one stage per over-budget boundary; stop only when the whole
		// ladder is spent. When the budget is never exceeded the check is
		// read-only, so governed and ungoverned runs stay bit-identical.
		if gov != nil && gov.check(l) {
			res.Stopped = StopMemBudget
			break
		}
		res.Stats.Iterations++
		s := heap.Pop(l.q).(*State)
		ev.hot(s)
		if s.stale {
			if o.DisableFission {
				s.FT = &ftree.Tree{}
			} else if err := guard(ftreeRuleName, "tree rebuild", func() error {
				t := time.Now()
				s.FT = rebuildTree(s, l.ftOpts)
				res.Stats.FTreeTime += time.Since(t)
				return nil
			}); err != nil {
				// A state whose tree cannot be re-analyzed still explores
				// graph rewrites; it just loses its fission moves.
				res.Diagnostics.notePanic(err, l.quar)
				s.FT = &ftree.Tree{}
			}
			s.stale = false
		}
		cands := neighbors(s, o, res, l.quar)
		// One reachability index per parent state, built lazily on the
		// first incremental reschedule and shared read-only by every
		// worker of the expansion.
		rc := &reachCache{g: s.EvalG}
		if o.Workers == 1 || len(cands) == 1 {
			// Sequential pipeline: process-then-merge one candidate at a
			// time, so the duplicate pre-filter sees every previously
			// merged hash and no candidate is ever evaluated wastefully —
			// today's exact behavior.
			ev.rc = rc
			for _, cand := range cands {
				if err := ctx.Err(); err != nil {
					res.Stopped = stopReason(err)
					break
				}
				l.absorb(cand, processCandidate(ev, cand, s, o, l.seen))
			}
		} else {
			outs := pool.run(ctx, cands, s, rc, o, l.seen)
			for i, out := range outs {
				if out == nil {
					res.Stopped = stopReason(ctx.Err())
					break
				}
				l.absorb(cands[i], out)
			}
		}
		if res.Stopped != StopConverged {
			tainted = true
			break // the candidate loop was interrupted mid-expansion
		}
		if o.OnExpansion != nil {
			o.OnExpansion(res.Stats.Iterations)
		}
	}
	pool.flush(&res.Stats)
	res.Best = l.best
	if ck != nil {
		ck.final(l, tainted)
	}
}

// absorb merges one candidate's evaluation outcome, reproducing the
// sequential per-candidate decisions exactly: diagnostics and quarantine
// advancement, the authoritative duplicate filter (first candidate in
// generation order wins; later equal-hash candidates count as Filtered
// even if a worker already evaluated them), best-state selection, history
// points, and delta-relaxed heap pushes.
func (l *searchLoop) absorb(cand *candidate, out *candOutcome) {
	res, quar := l.res, l.quar
	if out.hashErr != nil {
		res.Diagnostics.notePanic(out.hashErr, quar)
		return
	}
	// Hash-filter BEFORE the expensive scheduling + simulation — the
	// Fig. 15 pipeline, where most generated graphs are duplicates and
	// (on the sequential path) never reach the scheduler.
	if out.dup || l.seen[out.hash] {
		res.Stats.Filtered++
		return
	}
	l.seen[out.hash] = true
	if out.badGraph {
		res.Diagnostics.noteInvariant(cand.rule, quar)
		return
	}
	if out.evalErr != nil {
		// Recovered panics are diagnosed; plain evaluation errors (e.g. a
		// stale region) skip silently, matching the pre-hardening
		// contract.
		res.Diagnostics.notePanic(out.evalErr, quar)
		return
	}
	if out.badSched {
		res.Diagnostics.noteInvariant(cand.rule, quar)
		return
	}
	quar.ok(cand.rule)
	res.Diagnostics.rule(cand.rule).Evaluated++
	if l.o.better(cand.state, l.best, 1) {
		l.best = cand.state
		res.History = append(res.History,
			HistoryPoint{l.elapsed(), l.best.PeakMem, l.best.Latency})
	}
	if l.o.better(cand.state, l.best, pushDelta) {
		heap.Push(l.q, cand.state)
	}
}

// ftreeRuleName is the pseudo-rule name F-Tree mutations and rebuilds are
// attributed to in Diagnostics and quarantine.
const ftreeRuleName = "FTree"

type candidate struct {
	state      *State
	oldMutated []graph.NodeID
	// rule and site attribute failures during this candidate's collapse,
	// hashing, and evaluation to the transformation that produced it.
	rule string
	site string
}

// neighbors generates new M-States by applying M-Rules: graph rewrite
// rules on the logical graph and mutation rules on the F-Tree. Every rule
// application runs under guard; a panicking rule loses its candidates for
// this expansion and advances toward quarantine instead of crashing the
// search.
func neighbors(s *State, o *Options, res *Result, quar *quarantine) []*candidate {
	st := &res.Stats
	var out []*candidate
	t0 := time.Now()
	ctx := &rules.Context{
		Hot:          s.Hot,
		Cover:        s.FT.EnabledCover(),
		MaxSites:     o.MaxSites,
		UseHotFilter: !o.NaiveSchedRules,
	}
	for _, r := range o.Rules {
		name := r.Name()
		if quar.active(name) {
			continue
		}
		var apps []rules.Application
		if err := guard(name, "Apply", func() error {
			apps = r.Apply(s.G, ctx)
			return nil
		}); err != nil {
			res.Diagnostics.notePanic(err, quar)
			continue
		}
		for _, app := range apps {
			// Copy-on-write F-Tree: a graph-rewrite candidate never
			// mutates the tree — it is marked stale and rebuilds a fresh
			// one when popped — so it shares the parent's tree instead of
			// cloning it. Trees referenced by candidate states are
			// treated as immutable everywhere (F-Tree mutations below
			// clone before Apply), which also makes the shared reads safe
			// across evaluation workers.
			out = append(out, &candidate{
				state:      &State{G: app.Graph, FT: s.FT, stale: true},
				oldMutated: mapToEval(s, app.OldMutated),
				rule:       name,
				site:       app.Site(),
			})
			res.Diagnostics.rule(name).Applications++
			st.Trans++
		}
	}
	if !quar.active(ftreeRuleName) {
		var muts []ftree.Mutation
		if err := guard(ftreeRuleName, "Mutations", func() error {
			muts = s.FT.Mutations(s.G)
			return nil
		}); err != nil {
			res.Diagnostics.notePanic(err, quar)
		}
		for _, m := range muts {
			var cand *candidate
			site := fmt.Sprintf("mutation %v@%v", m.Kind, m.Path)
			if err := guard(ftreeRuleName, site, func() error {
				ft := s.FT.Clone()
				target := ft.NodeAt(m.Path)
				if err := ft.Apply(m); err != nil || target == nil {
					return errSkip
				}
				mut := regionAnchors(s, target)
				if m.Kind == ftree.Lift && target.Parent != nil {
					mut = append(mut, regionAnchors(s, target.Parent)...)
				}
				cand = &candidate{
					state:      &State{G: s.G, FT: ft},
					oldMutated: mut,
					rule:       ftreeRuleName,
					site:       site,
				}
				return nil
			}); err != nil {
				res.Diagnostics.notePanic(err, quar)
				continue
			}
			out = append(out, cand)
			res.Diagnostics.rule(ftreeRuleName).Applications++
			st.Trans++
		}
	}
	st.TransTime += time.Since(t0)
	return out
}

// mapToEval keeps only mutated nodes visible in the parent's eval graph,
// adding the region nodes covering collapsed ones.
func mapToEval(s *State, ids []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, id := range ids {
		if s.EvalG.Has(id) {
			out = append(out, id)
		}
	}
	if len(out) < len(ids) {
		// Some were collapsed: anchor at every region node (coarse but
		// safe; Incremental widens/falls back as needed).
		for _, rid := range s.regions {
			out = append(out, rid)
		}
	}
	return out
}

// regionAnchors returns the parent-eval-graph nodes standing for an F-Tree
// node's region: the members if expanded, the region node if collapsed.
func regionAnchors(s *State, n *ftree.Node) []graph.NodeID {
	if id, ok := s.regions[regionKey(n.T.S)]; ok {
		return []graph.NodeID{id}
	}
	var out []graph.NodeID
	for _, v := range n.T.S {
		if s.EvalG.Has(v) {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		// Fully nested inside another region: anchor there.
		for _, rid := range s.regions {
			out = append(out, rid)
		}
	}
	return out
}

// rebuildTree re-analyzes the F-Tree after a graph rewrite (Algorithm 3
// line 13-14), preserving enabled regions by set identity.
func rebuildTree(s *State, o ftree.Options) *ftree.Tree {
	nt := ftree.Build(s.G, s.Hot, o)
	enabled := s.FT.EnabledNodes()
	matched := make(map[string]int, len(enabled))
	for _, en := range enabled {
		matched[regionKey(en.T.S)] = en.N
	}
	nt.Walk(func(n *ftree.Node) {
		if nn, ok := matched[regionKey(n.T.S)]; ok {
			n.N = nn
			delete(matched, regionKey(n.T.S))
		}
	})
	// Enabled regions absent from the fresh tree survive as extra roots.
	for _, en := range enabled {
		if _, missing := matched[regionKey(en.T.S)]; missing {
			keep := &ftree.Node{T: en.T, N: en.N, Score: en.Score, Level: en.Level}
			nt.Roots = append(nt.Roots, keep)
		}
	}
	return nt
}
