package opt

import (
	"context"
	"sync"
	"sync/atomic"

	"magis/internal/cost"
	"magis/internal/graph"
)

// The parallel candidate-evaluation pipeline. After neighbors generates an
// expansion's candidates, they fan out to Options.Workers goroutines, each
// owning an evaluator (scheduler, collapser, scratch buffers, stats
// shard). Everything a worker touches is either candidate-private (the
// cloned graph, the collapsed eval graph) or read-only and shared (the
// parent state and its WL-label snapshot, the cost model's lock-free
// cache, the once-built reach index, a frozen snapshot of the seen-hash
// set). All order-sensitive
// bookkeeping — the authoritative duplicate filter, quarantine streaks,
// diagnostics, best-state selection, history, heap pushes — happens on the
// search goroutine in candidate-index order (searchLoop.absorb), so the
// search result is bit-for-bit reproducible for any worker count.

// candOutcome carries one candidate's off-thread evaluation result back to
// the deterministic merge step. At most one of the failure fields is set.
type candOutcome struct {
	hash uint64
	// hashErr is a guard failure from collapse/hash; the candidate carries
	// no usable state.
	hashErr error
	// dup reports that the hash hit the seen-set snapshot taken before the
	// expansion and evaluation was skipped. The merge re-checks the live
	// set either way, which also catches duplicates arising within one
	// expansion.
	dup bool
	// badGraph: Options.CheckInvariants rejected the collapsed graph.
	badGraph bool
	// evalErr is a guard failure or plain error from evaluate.
	evalErr error
	// badSched: Options.CheckInvariants rejected the schedule.
	badSched bool
}

// processCandidate runs the per-candidate pipeline — collapse → WL-hash →
// duplicate pre-filter → graph validation → schedule + simulate → schedule
// validation — on one worker's evaluator. seen is the frozen snapshot of
// hashes committed by previous expansions; it is read, never written: the
// merge step owns the authoritative duplicate decision.
func processCandidate(ev *evaluator, cand *candidate, parent *State, o *Options, seen map[uint64]bool) *candOutcome {
	out := &candOutcome{}
	if err := guard(cand.rule, cand.site, func() error {
		if err := ev.collapse(cand.state); err != nil {
			return err
		}
		out.hash = ev.hash(cand.state, parent)
		return nil
	}); err != nil {
		out.hashErr = err
		return out
	}
	if seen[out.hash] {
		out.dup = true
		return out
	}
	// Reject corrupted candidates before they can poison the
	// measurements: a shape-broken graph can report an arbitrarily low
	// (wrong) peak and win the search.
	if o.CheckInvariants {
		if err := graph.Validate(cand.state.G); err != nil {
			out.badGraph = true
			return out
		}
	}
	if err := guard(cand.rule, cand.site, func() error {
		return ev.evaluate(cand.state, parent, cand.oldMutated)
	}); err != nil {
		out.evalErr = err
		return out
	}
	if o.CheckInvariants {
		if err := cand.state.Sched.Validate(cand.state.EvalG); err != nil {
			out.badSched = true
		}
	}
	return out
}

// evalPool owns the per-worker evaluators of one search run. Worker 0's
// evaluator doubles as the search's primary evaluator (initial evaluation,
// Workers == 1 fast path) and writes the main Stats directly; the others
// write private shards folded in by flush.
type evalPool struct {
	evs    []*evaluator
	shards []Stats
}

func newEvalPool(workers int, model *cost.Model, main *Stats) *evalPool {
	p := &evalPool{shards: make([]Stats, workers)}
	for i := 0; i < workers; i++ {
		st := main
		if i > 0 {
			st = &p.shards[i]
		}
		p.evs = append(p.evs, newEvaluator(model, st))
	}
	return p
}

// primary returns the evaluator used outside the fan-out.
func (p *evalPool) primary() *evaluator { return p.evs[0] }

// run fans cands out to the pool and returns outcomes indexed like cands.
// A nil outcome means the context was cancelled before that candidate was
// picked up; the merge stops at the first nil, mirroring the sequential
// loop's per-candidate cancellation check. guard panic containment runs
// inside each worker goroutine, so one poisoned candidate still costs only
// itself.
func (p *evalPool) run(ctx context.Context, cands []*candidate, parent *State, rc *reachCache, o *Options, seen map[uint64]bool) []*candOutcome {
	outs := make([]*candOutcome, len(cands))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < len(p.evs) && w < len(cands); w++ {
		ev := p.evs[w]
		ev.rc = rc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cands) || ctx.Err() != nil {
					return
				}
				outs[i] = processCandidate(ev, cands[i], parent, o, seen)
			}
		}()
	}
	wg.Wait()
	return outs
}

// flush folds the worker shards into the main stats. Called once when the
// search ends.
func (p *evalPool) flush(main *Stats) {
	for i := 1; i < len(p.shards); i++ {
		main.add(&p.shards[i])
		p.shards[i] = Stats{}
	}
}
