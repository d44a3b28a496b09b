package magis

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7). Each benchmark drives the same expr runner the
// magis-bench CLI uses, at a reduced scale/budget so `go test -bench=.`
// completes in minutes; pass -scale/-budget style fidelity through
// cmd/magis-bench for the full reproduction.

import (
	"testing"
	"time"

	"magis/internal/expr"
	"magis/internal/models"
)

// benchCfg runs paper-scale tensor shapes with a reduced search budget:
// the trade-off space only has the paper's shape when operators are
// compute/bandwidth-bound rather than launch-bound, so batch sizes stay
// at Table 2 values and only the search time shrinks.
func benchCfg() expr.Config {
	return expr.Config{Scale: 1, Budget: 1500 * time.Millisecond}
}

// benchWorkloads is a representative three-topology subset (CNN,
// transformer, skip-heavy segmentation) at Table 2 scale.
func benchWorkloads() []*models.Workload {
	return []*models.Workload{
		models.ResNet50(64, 224),
		models.BERTBase(32, 512),
		models.UNet(32, 256),
	}
}

func BenchmarkTable2_Workloads(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows := expr.Table2(cfg)
		if len(rows) != 7 {
			b.Fatal("workload suite incomplete")
		}
	}
}

func BenchmarkFig9_MemoryUnderLatency(b *testing.B) {
	cfg := benchCfg()
	ws := benchWorkloads()
	for i := 0; i < b.N; i++ {
		rows := expr.Fig9(cfg, []float64{0.10}, ws)
		if len(rows) != len(ws) {
			b.Fatal("missing rows")
		}
		b.Log("\n" + expr.RenderFig9(rows))
	}
}

func BenchmarkFig10_LatencyUnderMemory(b *testing.B) {
	cfg := benchCfg()
	ws := benchWorkloads()
	for i := 0; i < b.N; i++ {
		rows := expr.Fig10(cfg, []float64{0.8}, ws)
		if len(rows) != len(ws) {
			b.Fatal("missing rows")
		}
		b.Log("\n" + expr.RenderFig10(rows))
	}
}

func BenchmarkFig11_Pareto(b *testing.B) {
	cfg := benchCfg()
	ws := benchWorkloads()[2:3] // UNet: the paper's showcase topology
	for i := 0; i < b.N; i++ {
		curves := expr.Fig11(cfg, ws, []float64{0.8, 0.6, 0.4})
		if len(curves) == 0 {
			b.Fatal("no curves")
		}
		b.Log("\n" + expr.RenderFig11(curves))
	}
}

func BenchmarkFig12_MicroBatch(b *testing.B) {
	cfg := benchCfg()
	w := models.ViTBase(64, 224, 16)
	for i := 0; i < b.N; i++ {
		pts := expr.Fig12(cfg, w, []float64{0.6, 0.4}, []int{8, 4})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
		b.Log("\n" + expr.RenderFig12(pts))
	}
}

func BenchmarkFig13_Ablation(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = 500 * time.Millisecond
	w := models.BERTBase(32, 512)
	for i := 0; i < b.N; i++ {
		curves := expr.Fig13(cfg, w)
		if len(curves) == 0 {
			b.Fatal("no ablation curves")
		}
		b.Log("\n" + expr.RenderFig13(curves))
	}
}

func BenchmarkFig14_IncrementalScheduling(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		sum := expr.Summarize(expr.Fig14(cfg, 10, 10))
		if sum.Samples == 0 {
			b.Fatal("no samples")
		}
		b.Log("\n" + expr.RenderFig14(sum))
	}
}

func BenchmarkFig15_TimeBreakdown(b *testing.B) {
	cfg := benchCfg()
	w := models.ViTBase(64, 224, 16)
	for i := 0; i < b.N; i++ {
		bd := expr.Fig15(cfg, w)
		if bd.Iterations == 0 {
			b.Fatal("empty breakdown")
		}
		b.Log("\n" + expr.RenderFig15(bd))
	}
}

func BenchmarkFig16_CaseStudy(b *testing.B) {
	cfg := benchCfg()
	w := models.UNet(32, 256)
	for i := 0; i < b.N; i++ {
		series := expr.Fig16(cfg, w)
		if len(series) < 2 {
			b.Fatal("missing series")
		}
		b.Log("\n" + expr.RenderFig16(series))
	}
}

// BenchmarkAblation_* isolate the design choices DESIGN.md calls out.

func ablationRun(b *testing.B, o Options) {
	w := models.UNet(32, 256)
	m := NewModel(RTX3090())
	base := Baseline(w.G, m)
	o.Mode = MemoryUnderLatency
	o.LatencyLimit = base.Latency * 1.10
	o.TimeBudget = time.Second
	for i := 0; i < b.N; i++ {
		res, err := Optimize(w.G, m, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Best.PeakMem)/float64(base.PeakMem), "mem-ratio")
		b.ReportMetric(float64(res.Stats.Iterations), "iterations")
	}
}

func BenchmarkAblation_Default(b *testing.B)         { ablationRun(b, Options{}) }
func BenchmarkAblation_NaiveFission(b *testing.B)    { ablationRun(b, Options{NaiveFission: true}) }
func BenchmarkAblation_NaiveSchedRules(b *testing.B) { ablationRun(b, Options{NaiveSchedRules: true}) }
func BenchmarkAblation_NoFission(b *testing.B)       { ablationRun(b, Options{DisableFission: true}) }
func BenchmarkAblation_FullReschedule(b *testing.B)  { ablationRun(b, Options{FullReschedule: true}) }
func BenchmarkAblation_MaxLevel2(b *testing.B)       { ablationRun(b, Options{MaxLevel: 2}) }
func BenchmarkAblation_MaxLevel8(b *testing.B)       { ablationRun(b, Options{MaxLevel: 8}) }
