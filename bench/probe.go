package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/ingest"
	"magis/internal/memplan"
	"magis/internal/opt"
	"magis/internal/plancache"
	"magis/internal/rules"
	"magis/internal/sched"
	"magis/internal/sim"
	"magis/internal/verify"
)

// probeReps is how often each probe call is repeated; the median counts.
const probeReps = 5

// probeSubject is what the search-pipeline probes run on.
type probeSubject struct {
	g    *graph.Graph // the graph the workload optimizes
	base *opt.State   // its baseline
	best *opt.State   // the best plan found for it
}

// probeLayers times direct calls into each search-pipeline layer on s:
// full and incremental scheduling, the step-model peak, simulation, rule
// application, hashing, reachability, dominators, F-Tree construction and
// arena planning.
func (r *run) probeLayers(s probeSubject) error {
	var psi sched.Schedule
	full := r.probe("sched.ScheduleGraph", probeReps, func() { psi = new(sched.Scheduler).ScheduleGraph(s.g) })

	ctx := &rules.Context{Hot: s.base.Hot, MaxSites: 8, UseHotFilter: true}
	var apps [][]rules.Application
	apply := r.probe("rules.Apply", probeReps, func() {
		apps = apps[:0]
		for _, rule := range rules.All() {
			apps = append(apps, rule.Apply(s.g, ctx))
		}
	})
	napps := 0
	var incr []float64
	for _, as := range apps {
		napps += len(as)
		if len(as) > 0 {
			a := as[0]
			d := r.probe("sched.IncrementalR", probeReps, func() {
				new(sched.Scheduler).IncrementalR(s.g, a.Graph, a.OldMutated, psi, nil)
			})
			incr = append(incr, in(time.Millisecond, d)...)
		}
	}

	b := s.best
	model := cost.NewModel(cost.RTX3090())
	peak := r.probe("sched.PeakOnly", probeReps, func() { sched.PeakOnly(b.EvalG, b.Sched) })
	simRun := r.probe("sim.Run", probeReps, func() { sim.Run(b.EvalG, b.Sched, sim.Config{Model: model}) })
	hash := r.probe("graph.WLHash", probeReps, func() { s.g.WLHash() })
	reach := r.probe("graph.NewReachIndex", probeReps, func() { graph.NewReachIndex(s.g) })
	dom := r.probe("graph.Dominators", probeReps, func() { graph.Dominators(s.g) })
	ft := r.probe("ftree.Build", probeReps, func() {
		ftree.Build(s.g, s.base.Hot, ftree.Options{MaxLevel: 4, MaxCandidates: 64})
	})
	var plan *memplan.Plan
	var err error
	mp := r.probe("memplan.Build", probeReps, func() { plan, err = memplan.Build(b.EvalG, b.Sched) })
	if !r.op(err) {
		return err
	}

	ms := func(name string, d time.Duration) metric { return exact(name, "ms", in(time.Millisecond, d)[0]) }
	r.put(ms("sched.full_ms", full),
		sampled("sched.incremental_ms", "ms", incr, 0.5),
		exact("sched.peak_us", "us", in(time.Microsecond, peak)[0]),
		ms("sim.run_ms", simRun),
		exact("sim.latency_ratio", "ratio", b.Latency/s.base.Latency),
		ms("rules.apply_ms", apply),
		exact("rules.apps", "count", float64(napps)),
		exact("graph.wlhash_us", "us", in(time.Microsecond, hash)[0]),
		ms("graph.reach_ms", reach),
		ms("graph.dom_ms", dom),
		ms("ftree.build_ms", ft),
		ms("memplan.build_ms", mp),
		exact("memplan.arena_over_step", "ratio", float64(plan.ArenaSize)/float64(b.PeakMem)),
		exact("memplan.frag", "ratio", plan.Fragmentation()),
		sampled("models.build_ms", "ms", in(time.Millisecond, r.builds...), 0.5))
	return nil
}

// serveFingerprint is the cache fingerprint the service gives an entry's
// requests under limit: memory mode at (1+limit)× the baseline latency,
// with the request's budget and iterations.
func serveFingerprint(m *cost.Model, e *entry, limit float64) plancache.Fingerprint {
	budget, _ := time.ParseDuration(hotBudget)
	return plancache.FingerprintFor(m, opt.Options{
		Mode:          opt.MemoryUnderLatency,
		LatencyLimit:  e.base.Latency * (1 + limit),
		TimeBudget:    budget,
		MaxIterations: hotIterations,
		Workers:       1,
	})
}

// probeServing times the serving layers of a session: decoding every hot
// document, exact lookups of every hot entry and a near lookup in the
// live cache, and numeric verification and verified admission of plan, a
// plan for the first hot entry, into a scratch cache.
func (r *run) probeServing(s *session, plan *opt.State) error {
	model := cost.NewModel(cost.RTX3090())
	var decode, kb, get []float64
	for _, e := range s.hot {
		if e.doc != nil {
			var err error
			d := r.probe("ingest.Decode", probeReps, func() {
				_, _, err = ingest.Decode(bytes.NewReader(e.doc), ingest.DefaultLimits())
			})
			r.op(err)
			decode = append(decode, in(time.Millisecond, d)...)
			kb = append(kb, float64(len(e.doc))/1024)
		}
		fp := serveFingerprint(model, e, defaultLimit)
		ok := false
		d := r.probe("plancache.Get", probeReps, func() { _, ok = s.cache.Get(e.g, fp) })
		r.check(ok, "the cache holds no plan for hot entry %s", e.name)
		get = append(get, in(time.Millisecond, d)...)
	}

	e := s.hot[0]
	var near []plancache.NearHit
	nearD := r.probe("plancache.Near", probeReps, func() {
		near = s.cache.Near(e.g, serveFingerprint(model, e, defaultLimit+1e-4))
	})
	r.check(len(near) > 0, "the cache has no near entry for %s", e.name)

	ft := plan.FT
	if ft == nil {
		ft = &ftree.Tree{}
	}
	mg, err := ft.Materialize(plan.G)
	if !r.op(err) {
		return err
	}
	var rep *verify.Report
	check := r.probe("verify.Check", 3, func() { rep = verify.Check(e.g, mg, 1) })
	r.check(rep.OK(), "verifying the %s plan: %s", e.name, rep)

	dir, err := os.MkdirTemp("", "magis-bench-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := plancache.Open(plancache.Config{Dir: dir})
	if err != nil {
		return err
	}
	fp := serveFingerprint(model, e, defaultLimit)
	put := r.probe("plancache.Put", 3, func() { err = scratch.Put(e.g, fp, plan) })
	if !r.op(err) {
		return fmt.Errorf("scratch cache admission: %w", err)
	}
	r.put(sampled("ingest.decode_ms", "ms", decode, 0.5),
		exact("ingest.doc_kb", "KB", mean(kb)),
		sampled("plancache.get_ms", "ms", get, 0.5),
		exact("plancache.near_ms", "ms", in(time.Millisecond, nearD)[0]),
		exact("plancache.put_s", "s", put.Seconds()),
		exact("verify.check_s", "s", check.Seconds()))
	return nil
}
