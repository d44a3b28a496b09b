package opt

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"magis/internal/graph"
	"magis/internal/models"
)

// The fixed-work searches of the repository benchmark (bench/search.go),
// pinned. MaxIterations is their only stop, so each does the same work on
// any machine and at any worker count: its plan is exact, and its
// allocations per schedule evaluation are a property of the code, not of
// the host. The benchmark's paired gate (scripts/bench_gate.sh) judges
// wall time; this test judges what that gate cannot see: the plan, the
// allocation diet and the phase accounting.

// allocCeiling is the factor by which an allocation count may exceed its
// pinned value. Every pinned count was measured on a 2-CPU host
// (GOMAXPROCS=2, Go 1.24.0); the race detector reads 3–5% higher.
const allocCeiling = 1.5

// minCovered is the share of a one-worker search's wall time the phase
// timers must account for; they covered 99.7% when pinned.
const minCovered = 0.75

func bertBase() *models.Workload  { return models.BERTBase(32, 512) }
func nasnet528() *models.Workload { return models.RandomNASNet(1, 24, 32, 64, 16) }

// fixedWork is one pinned search: its input and work, the plan key it must
// reproduce (peak, latency and the WL hash of the evaluation graph), and
// its allocations per evaluation.
type fixedWork struct {
	name           string
	input          func() *models.Workload
	iters, workers int
	peak           int64
	latency        float64
	hash           uint64
	allocsPerEval  float64
}

var fixedWorks = []fixedWork{
	{"search-bert", bertBase, 20, 1, 6815916036, 0.47647040124689316, 0x170fc7a9323a0ee9, 3440},
	{"search-nasnet/workers=1", nasnet528, 40, 1, 93401536, 0.011411408471770784, 0x876e827a66a416b4, 1028},
	{"search-nasnet/workers=2", nasnet528, 40, 2, 93401536, 0.011411408471770784, 0x876e827a66a416b4, 964},
}

// TestFixedWorkSearches runs each pinned search once and checks its plan
// key exactly, its allocations per evaluation against the ceiling, and
// that every phase of the pipeline was both exercised and timed.
func TestFixedWorkSearches(t *testing.T) {
	for _, fw := range fixedWorks {
		t.Run(fw.name, func(t *testing.T) {
			g := fw.input().G
			m := model()
			o := Options{
				Mode:          MemoryUnderLatency,
				LatencyLimit:  Baseline(g, m).Latency * 1.10,
				Workers:       fw.workers,
				MaxIterations: fw.iters,
				TimeBudget:    -1,
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := OptimizeCtx(context.Background(), g, m, o)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stopped != StopExhausted {
				t.Fatalf("search stopped %v, want exhausted", res.Stopped)
			}

			b, st := res.Best, res.Stats
			if h := b.EvalG.WLHash(); b.PeakMem != fw.peak || h != fw.hash ||
				math.Abs(b.Latency/fw.latency-1) > 1e-12 {
				t.Errorf("plan (peak %d, latency %v, hash %#x), want (%d, %v, %#x)",
					b.PeakMem, b.Latency, h, fw.peak, fw.latency, fw.hash)
			}

			perEval := float64(after.Mallocs-before.Mallocs) / float64(st.Sched)
			t.Logf("%d evals in %v, %.0f allocs/eval (pinned %.0f)", st.Sched, wall, perEval, fw.allocsPerEval)
			if perEval > allocCeiling*fw.allocsPerEval {
				t.Errorf("%.0f allocs/eval, over %.1f× the pinned %.0f", perEval, allocCeiling, fw.allocsPerEval)
			}

			if st.Trans == 0 || st.Collapse == 0 || st.Hash == 0 || st.Sched == 0 || st.Simul == 0 {
				t.Errorf("dead phase: Trans=%d Collapse=%d Hash=%d Sched=%d Simul=%d",
					st.Trans, st.Collapse, st.Hash, st.Sched, st.Simul)
			}
			if st.TransTime <= 0 || st.CollapseTime <= 0 || st.HashTime <= 0 ||
				st.SchedTime <= 0 || st.SimulTime <= 0 || st.FTreeTime <= 0 {
				t.Errorf("untimed phase: Trans=%v Collapse=%v Hash=%v Sched=%v Simul=%v FTree=%v",
					st.TransTime, st.CollapseTime, st.HashTime, st.SchedTime, st.SimulTime, st.FTreeTime)
			}
			capacity := wall * time.Duration(fw.workers)
			if st.PhaseTime() > capacity {
				t.Errorf("phases sum to %v, over the %v of worker capacity", st.PhaseTime(), capacity)
			}
			if covered := float64(st.PhaseTime()) / float64(wall); fw.workers == 1 && covered < minCovered {
				t.Errorf("phases cover %.0f%% of the wall time, want at least %.0f%%", 100*covered, 100*minCovered)
			}
		})
	}
}

// TestAllocsPerOp holds the search's building blocks under allocs/op
// ceilings: an unoptimized baseline evaluation, one expansion's candidate
// generation and one WL hash with warm scratch (pinned at zero).
func TestAllocsPerOp(t *testing.T) {
	unet := models.UNet(32, 256).G
	m := model()
	st, res := benchState(t)
	o := Options{}
	o.defaults()
	quar := newQuarantine(o.QuarantineAfter)
	mlp := fatMLP()
	var hs graph.HashScratch
	for _, c := range []struct {
		name   string
		pinned float64
		op     func()
	}{
		{"Baseline", 268, func() { Baseline(unet, m) }},
		{"Neighbors", 2117, func() { neighbors(st, &o, res, quar, nil) }},
		{"WLHash", 0, func() { mlp.WLHashScratch(&hs) }},
	} {
		if got := testing.AllocsPerRun(5, c.op); got > allocCeiling*c.pinned {
			t.Errorf("%s: %.0f allocs/op, over %.1f× the pinned %.0f", c.name, got, allocCeiling, c.pinned)
		}
	}
}
