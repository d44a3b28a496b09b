package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/memplan"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/tensor"
)

// latencyLimit is the objective of every search: minimize peak memory with
// latency at most this multiple of the unoptimized baseline's.
const latencyLimit = 1.10

// searchWorkload is a fixed-work optimizer search: MaxIterations is the
// only stop, so every search of the input does the same work and must find
// the same plan, whatever the machine or the worker count.
type searchWorkload struct {
	input   func() *models.Workload
	workers int
	iters   int
}

// Neither search workload depends on the seed. Search time differs up to
// 2.5× between random NASNet graphs of the same size, so a seeded graph
// made the ten-seed quartile spread of search time 34%, past any bound the
// benchmark may set; the seed-1 graph the paper-scale runs use is fixed
// instead.
var searchWorkloads = map[string]searchWorkload{
	// A transformer chain: scheduling is most of the wall time and the
	// rewrites yield few candidates, so this is the workload for scheduler
	// changes and the bypass for simulator and parallel-pipeline changes.
	"search-bert": {
		input:   func() *models.Workload { return models.BERTBase(32, 512) },
		workers: 1,
		iters:   20,
	},
	// Irregular cells with wide fan-in (528 nodes): many candidates per
	// expansion, so the fan-out, simulation, rules and hashing all do real
	// work, on two search workers.
	"search-nasnet": {
		input:   func() *models.Workload { return models.RandomNASNet(1, 24, 32, 64, 16) },
		workers: 2,
		iters:   40,
	},
}

// bertMini is the small transformer of the serve hot set; the search
// workloads run their serving and verification probes on it.
func bertMini() *models.Workload {
	return models.TransformerLM("BERT-mini", 2, 16, 64, 2, 4, 256, tensor.TF32, false)
}

// searchOptions is the objective every benchmark search uses. A negative
// TimeBudget leaves MaxIterations as the only stop.
func searchOptions(base *opt.State, workers, iters int) opt.Options {
	return opt.Options{
		Mode:          opt.MemoryUnderLatency,
		LatencyLimit:  base.Latency * latencyLimit,
		Workers:       workers,
		MaxIterations: iters,
		TimeBudget:    -1,
	}
}

// searched is one finished search and what was measured around it.
type searched struct {
	res    *opt.Result
	wall   time.Duration
	traced bool
	// Traced searches only: the intervals between expansions (the first
	// from the start of the call) and the allocation during the search.
	steps   []time.Duration
	allocMB float64
	mallocs float64
}

// search runs one fixed-work search with a fresh cost model, as the magis
// CLI does.
func (r *run) search(g *graph.Graph, base *opt.State, workers, iters int, traced bool) (searched, error) {
	var rec *recorder
	if traced {
		rec = r.rec
	}
	o := searchOptions(base, workers, iters)
	model := cost.NewModel(cost.RTX3090())
	out := searched{traced: traced}
	id := rec.id()
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	if traced {
		last := start
		o.OnExpansion = func(int) {
			now := time.Now()
			out.steps = append(out.steps, now.Sub(last))
			rec.add(rec.id(), id, id, "opt.expansion", last, now)
			last = now
		}
	}
	res, err := opt.OptimizeCtx(context.Background(), g, model, o)
	end := time.Now()
	out.res, out.wall = res, end.Sub(start)
	rec.add(id, 0, id, "opt.OptimizeCtx", start, end)
	if traced {
		runtime.ReadMemStats(&after)
		out.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		out.mallocs = float64(after.Mallocs - before.Mallocs)
	}
	if err == nil && (res == nil || res.Best == nil) {
		err = fmt.Errorf("search returned no plan")
	}
	return out, err
}

// planKey identifies a plan: every search of the input must reproduce it.
type planKey struct {
	peak    int64
	latency float64
	hash    uint64
}

func keyOf(s *opt.State) planKey { return planKey{s.PeakMem, s.Latency, s.EvalG.WLHash()} }

// checkPlan checks a fixed-work search's result: it ran all its
// iterations, meets the latency limit, and its graphs, schedule and arena
// layout are valid.
func checkPlan(res *opt.Result, limit float64) error {
	b := res.Best
	if res.Stopped != opt.StopExhausted {
		return fmt.Errorf("search stopped %v, want exhausted", res.Stopped)
	}
	if b.Latency > limit {
		return fmt.Errorf("plan latency %g over the limit %g", b.Latency, limit)
	}
	if err := graph.Validate(b.G); err != nil {
		return fmt.Errorf("plan graph: %w", err)
	}
	if err := b.Sched.Validate(b.EvalG); err != nil {
		return fmt.Errorf("plan schedule: %w", err)
	}
	p, err := memplan.Build(b.EvalG, b.Sched)
	if err != nil {
		return err
	}
	return p.Verify()
}

// sameRep checks a search after the first: it must reproduce want.
func sameRep(res *opt.Result, want planKey) error {
	if res.Stopped != opt.StopExhausted {
		return fmt.Errorf("search stopped %v, want exhausted", res.Stopped)
	}
	if got := keyOf(res.Best); got != want {
		return fmt.Errorf("plan %+v differs from the reference %+v", got, want)
	}
	return nil
}

func runSearch(r *run, wl searchWorkload) error {
	// Set-up builds the input and its baseline and runs the reference
	// search on one worker, which is also the warm-up. Every set-up must
	// find the same reference plan, and every timed search must reproduce
	// it, whatever its worker count.
	var w *models.Workload
	var base *opt.State
	var ref searched
	var want *planKey
	err := r.setup(func(parent int64) (func(), error) {
		r.build(parent, func() { w = wl.input() })
		start := time.Now()
		base = opt.Baseline(w.G, cost.NewModel(cost.RTX3090()))
		r.rec.add(r.rec.id(), parent, parent, "opt.Baseline", start, time.Now())
		var err error
		ref, err = r.search(w.G, base, 1, wl.iters, false)
		switch {
		case err != nil:
		case want != nil:
			err = sameRep(ref.res, *want)
		default:
			if err = checkPlan(ref.res, base.Latency*latencyLimit); err == nil {
				k := keyOf(ref.res.Best)
				want = &k
			}
		}
		if !r.op(err) {
			return nil, fmt.Errorf("reference search: %w", err)
		}
		return nil, nil
	})
	if err != nil {
		return err
	}

	// Timed searches run until the window closes. A traced run alternates
	// traced and untraced searches, so the tracing overhead can be read
	// off; it runs at least two of each.
	minReps := 1
	if r.cfg.trace {
		minReps = 4
	}
	var runs []searched
	gc0 := readGC()
	end := time.Now().Add(r.cfg.window)
	for i := 0; i < minReps || time.Now().Before(end); i++ {
		s, err := r.search(w.G, base, wl.workers, wl.iters, r.cfg.trace && i%2 == 0)
		if err == nil {
			err = sameRep(s.res, *want)
		}
		if r.op(err) {
			runs = append(runs, s)
		}
	}
	gc1 := readGC()
	if len(runs) == 0 {
		return fmt.Errorf("no search succeeded")
	}

	var ms []float64
	var total float64
	for _, s := range runs {
		ms = append(ms, in(time.Millisecond, s.wall)...)
		total += s.wall.Seconds()
	}
	if !r.cfg.trace {
		ops := exact("ops_per_s", "1/s", float64(len(ms))/total)
		ops.N = len(ms)
		r.put(sampled("p50_ms", "ms", ms, 0.5), ops,
			exact("mem_ratio", "ratio", float64(want.peak)/float64(base.PeakMem)))
		return nil
	}

	r.put(sampled("client.p90_ms", "ms", ms, 0.9))
	var traced []searched
	var tracedS, plainS []float64
	for _, s := range runs {
		if s.traced {
			traced = append(traced, s)
			tracedS = append(tracedS, s.wall.Seconds())
		} else {
			plainS = append(plainS, s.wall.Seconds())
		}
	}
	if len(traced) == 0 || len(plainS) == 0 {
		return fmt.Errorf("the traced and untraced searches did not both succeed")
	}
	r.optLayer(traced, wl.workers)
	r.put(exact("runtime.gc_cpu_frac", "ratio", gc1.since(gc0)),
		exact("trace.overhead_frac", "ratio", quantile(tracedS, 0.5)/quantile(plainS, 0.5)-1))
	if err := r.probeLayers(probeSubject{g: w.G, base: base, best: ref.res.Best}); err != nil {
		return err
	}
	return r.serveProbe()
}

// optLayer reports the search pipeline's per-layer numbers from traced
// searches: counts from the first, which repeat exactly for a fixed-work
// search; times and shares as medians over all of them.
func (r *run) optLayer(runs []searched, workers int) {
	first := runs[0].res.Stats
	dup := 0.0
	if first.Hash > 0 {
		dup = float64(first.Filtered) / float64(first.Hash)
	}
	r.put(exact("opt.expansions", "count", float64(first.Iterations)),
		exact("opt.evals", "count", float64(first.Sched)),
		exact("opt.candidates", "count", float64(first.Trans)),
		exact("opt.dup_frac", "ratio", dup),
		exact("sched.rescheduled_ops", "count", float64(first.Rescheduled)))

	var steps []time.Duration
	var other, eff, schedF, simF, rulesF, hashF, alloc, mallocs []float64
	for _, s := range runs {
		st, wall := s.res.Stats, s.wall.Seconds()
		capacity := float64(workers) * wall
		phases := (st.TransTime + st.SchedTime + st.SimulTime + st.HashTime).Seconds()
		steps = append(steps, s.steps...)
		other = append(other, 1-phases/wall)
		eff = append(eff, phases/capacity)
		schedF = append(schedF, st.SchedTime.Seconds()/capacity)
		simF = append(simF, st.SimulTime.Seconds()/capacity)
		rulesF = append(rulesF, st.TransTime.Seconds()/capacity)
		hashF = append(hashF, st.HashTime.Seconds()/capacity)
		alloc = append(alloc, s.allocMB)
		mallocs = append(mallocs, s.mallocs/1000)
	}
	stepMS := in(time.Millisecond, steps...)
	r.put(sampled("opt.expansion_p50_ms", "ms", stepMS, 0.5),
		sampled("opt.expansion_max_ms", "ms", stepMS, 1),
		sampled("opt.other_frac", "ratio", other, 0.5),
		sampled("opt.parallel_eff", "ratio", eff, 0.5),
		sampled("sched.busy_frac", "ratio", schedF, 0.5),
		sampled("sim.busy_frac", "ratio", simF, 0.5),
		sampled("rules.busy_frac", "ratio", rulesF, 0.5),
		sampled("graph.hash_busy_frac", "ratio", hashF, 0.5),
		sampled("runtime.alloc_mb", "MB", alloc, 0.5),
		sampled("runtime.mallocs_k", "count", mallocs, 0.5))
}

// gcSample is a reading of the runtime's CPU accounting.
type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// since is the share of CPU time spent in the garbage collector between
// s0 and s.
func (s gcSample) since(s0 gcSample) float64 {
	if s.total <= s0.total {
		return 0
	}
	return (s.gc - s0.gc) / (s.total - s0.total)
}
