package opt

import (
	"context"
	"sync"
	"testing"

	"magis/internal/ftree"
)

// deterministicOptions bounds the search by iterations instead of
// wall-clock so runs are comparable across worker counts and machines.
func deterministicOptions(workers int) Options {
	return Options{
		Mode:            MemoryUnderLatency,
		TimeBudget:      -1, // disabled: MaxIterations is the only bound
		MaxIterations:   12,
		Workers:         workers,
		CheckInvariants: true,
	}
}

type runSummary struct {
	bestHash    uint64
	peakMem     int64
	latency     float64
	iterations  int
	trans       int
	filtered    int
	history     []HistoryPoint
	evaluated   map[string]int
	sched       int
	simul       int
	hash        int
	stopped     StopReason
	panics      int
	quarantined []string
}

func summarize(t *testing.T, workers int) runSummary {
	t.Helper()
	g := fatMLP()
	res, err := Optimize(g, model(), deterministicOptions(workers))
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	ev := make(map[string]int)
	for name, rd := range res.Diagnostics.Rules {
		ev[name] = rd.Evaluated
	}
	return runSummary{
		bestHash:    res.Best.EvalG.WLHash(),
		peakMem:     res.Best.PeakMem,
		latency:     res.Best.Latency,
		iterations:  res.Stats.Iterations,
		trans:       res.Stats.Trans,
		filtered:    res.Stats.Filtered,
		history:     res.History,
		evaluated:   ev,
		sched:       res.Stats.Sched,
		simul:       res.Stats.Simul,
		hash:        res.Stats.Hash,
		stopped:     res.Stopped,
		panics:      res.Diagnostics.Panics(),
		quarantined: res.Diagnostics.Quarantined(),
	}
}

// TestParallelDeterminism is the determinism contract: for a fixed
// workload and seed options, the best state (WL hash, peak, latency), the
// history of improvements, and the order-sensitive counters are identical
// for any worker count. Only duplicated-work counters (Sched/Simul/Hash)
// and timers may grow with parallelism.
func TestParallelDeterminism(t *testing.T) {
	ref := summarize(t, 1)
	if ref.stopped != StopExhausted {
		t.Fatalf("reference run stopped %v, want exhausted (fix MaxIterations)", ref.stopped)
	}
	for _, w := range []int{2, 4} {
		got := summarize(t, w)
		if got.bestHash != ref.bestHash {
			t.Errorf("workers=%d: best WL hash %#x, want %#x", w, got.bestHash, ref.bestHash)
		}
		if got.peakMem != ref.peakMem {
			t.Errorf("workers=%d: PeakMem %d, want %d", w, got.peakMem, ref.peakMem)
		}
		if got.latency != ref.latency {
			t.Errorf("workers=%d: Latency %v, want %v", w, got.latency, ref.latency)
		}
		if got.iterations != ref.iterations || got.trans != ref.trans || got.filtered != ref.filtered {
			t.Errorf("workers=%d: (iters, trans, filtered) = (%d, %d, %d), want (%d, %d, %d)",
				w, got.iterations, got.trans, got.filtered, ref.iterations, ref.trans, ref.filtered)
		}
		if got.stopped != ref.stopped {
			t.Errorf("workers=%d: stopped %v, want %v", w, got.stopped, ref.stopped)
		}
		if len(got.history) != len(ref.history) {
			t.Errorf("workers=%d: %d history points, want %d", w, len(got.history), len(ref.history))
		} else {
			for i := range got.history {
				if got.history[i].PeakMem != ref.history[i].PeakMem || got.history[i].Latency != ref.history[i].Latency {
					t.Errorf("workers=%d: history[%d] = (%d, %v), want (%d, %v)", w, i,
						got.history[i].PeakMem, got.history[i].Latency,
						ref.history[i].PeakMem, ref.history[i].Latency)
				}
			}
		}
		if len(got.evaluated) != len(ref.evaluated) {
			t.Errorf("workers=%d: per-rule Evaluated %v, want %v", w, got.evaluated, ref.evaluated)
		} else {
			for name, n := range ref.evaluated {
				if got.evaluated[name] != n {
					t.Errorf("workers=%d: rule %s Evaluated = %d, want %d", w, name, got.evaluated[name], n)
				}
			}
		}
		if got.panics != ref.panics {
			t.Errorf("workers=%d: %d panics, want %d", w, got.panics, ref.panics)
		}
	}
}

// TestParallelStatsConsistent checks the counter invariants that must hold
// regardless of worker count: every scheduled candidate is simulated, every
// candidate reaching the duplicate filter was hashed, and the duplicate
// filter's outcome is exact (Filtered counts merged duplicates only).
func TestParallelStatsConsistent(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		s := summarize(t, w)
		if s.sched != s.simul {
			t.Errorf("workers=%d: Sched %d != Simul %d", w, s.sched, s.simul)
		}
		if s.hash < s.sched {
			t.Errorf("workers=%d: Hash %d < Sched %d (hash filter runs first)", w, s.hash, s.sched)
		}
		if s.sched == 0 {
			t.Errorf("workers=%d: no evaluations happened", w)
		}
	}
}

// tripCtx is a context whose deadline passes on a count of Err calls
// instead of on the clock. Once armed it answers nil to the next pass
// calls, then reports context.DeadlineExceeded from every call on.
type tripCtx struct {
	context.Context
	mu    sync.Mutex
	armed bool
	pass  int
	err   error
	done  chan struct{}
}

func newTripCtx(pass int) *tripCtx {
	return &tripCtx{Context: context.Background(), pass: pass, done: make(chan struct{})}
}

func (c *tripCtx) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

func (c *tripCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && c.armed {
		if c.pass == 0 {
			c.err = context.DeadlineExceeded
			close(c.done)
		}
		c.pass--
	}
	return c.err
}

// TestParallelCancellation: a deadline in the middle of a parallel
// expansion still returns the best state found so far with the pool
// drained cleanly. The deadline is armed after the first expansion and
// lets through the second expansion's boundary check plus the first four
// candidate pick-ups, one per worker, so it passes inside the fan-out
// while those four candidates are being evaluated, on any host.
func TestParallelCancellation(t *testing.T) {
	g := fatMLP()
	ctx := newTripCtx(1 + 4)
	o := deterministicOptions(4)
	o.MaxIterations = 10000
	last := 0
	o.OnExpansion = func(completed int) {
		last = completed
		if completed == 1 {
			ctx.arm()
		}
	}
	res, err := OptimizeCtx(ctx, g, model(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopDeadline {
		t.Errorf("stopped %v, want deadline", res.Stopped)
	}
	// The second expansion started but never completed: the search left
	// through the fan-out's cancelled outcomes, not a boundary check.
	if res.Stats.Iterations != 2 || last != 1 {
		t.Errorf("stopped after %d started and %d completed expansions, want 2 and 1",
			res.Stats.Iterations, last)
	}
	if res.Best == nil || res.Best.Sched == nil {
		t.Fatal("no best state returned on cancellation")
	}
	if err := res.Best.Sched.Validate(res.Best.EvalG); err != nil {
		t.Error(err)
	}
}

// TestOptionsDefaults pins the documented defaults, in particular the
// MaxSites regression (documented as 8 but previously left to the
// rules-side fallback) and the Workers floor.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.defaults()
	if o.MaxSites != 8 {
		t.Errorf("MaxSites default = %d, want 8", o.MaxSites)
	}
	if o.Workers < 1 {
		t.Errorf("Workers default = %d, want >= 1", o.Workers)
	}
	neg := Options{Workers: -3}
	neg.defaults()
	if neg.Workers != 1 {
		t.Errorf("negative Workers normalized to %d, want 1", neg.Workers)
	}
	kept := Options{MaxSites: 3, Workers: 2}
	kept.defaults()
	if kept.MaxSites != 3 || kept.Workers != 2 {
		t.Errorf("explicit options overridden: MaxSites=%d Workers=%d", kept.MaxSites, kept.Workers)
	}
}

// TestSharedFTreeIsCopyOnWrite guards the lazy-clone contract: graph-
// rewrite candidates share the parent's F-Tree, so the shared tree must
// never be mutated in place by the search.
func TestSharedFTreeIsCopyOnWrite(t *testing.T) {
	g := fatMLP()
	m := model()
	res := &Result{}
	ev := newEvaluator(m, &res.Stats)
	st := &State{G: g.Clone()}
	if err := ev.evaluate(st, nil, nil); err != nil {
		t.Fatal(err)
	}
	ev.hot(st)
	st.FT = ftree.Build(st.G, st.Hot, ftree.Options{})
	before := st.FT.Size()
	enabledBefore := len(st.FT.EnabledNodes())
	o := Options{}
	o.defaults()
	quar := newQuarantine(o.QuarantineAfter)
	cands := neighbors(st, &o, res, quar)
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	shared, cloned := 0, 0
	for _, c := range cands {
		if c.state.FT == st.FT {
			shared++
			if !c.state.stale {
				t.Error("candidate sharing the parent tree must be stale")
			}
		} else {
			cloned++
		}
	}
	if shared == 0 {
		t.Error("no graph-rewrite candidate shares the parent F-Tree (lazy clone regressed)")
	}
	if cloned == 0 {
		t.Error("no F-Tree mutation candidate cloned the tree")
	}
	if st.FT.Size() != before || len(st.FT.EnabledNodes()) != enabledBefore {
		t.Error("parent F-Tree mutated during neighbor generation")
	}
}
