package expr

import (
	"math"
	"testing"
	"time"

	"magis/internal/models"
)

// fastCfg keeps experiment smoke tests quick: tiny workloads, short budget.
func fastCfg() Config {
	return Config{Scale: 1, Budget: 300 * time.Millisecond}
}

// tinySuite is a reduced workload set for harness tests.
func tinySuite() []*models.Workload {
	return []*models.Workload{
		models.MLP(2048, 128, 512, 10, 3),
		models.UNetConfig(2, 64, 16, 3),
	}
}

func TestFig9Smoke(t *testing.T) {
	rows := Fig9(fastCfg(), []float64{0.10}, tinySuite())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		magis := r.Ratio["MAGIS"]
		if math.IsNaN(magis) {
			t.Errorf("%s: MAGIS failed", r.Workload)
			continue
		}
		if magis <= 0 || magis > 1.01 {
			t.Errorf("%s: MAGIS ratio %f out of range", r.Workload, magis)
		}
		for _, s := range SystemNames {
			if _, ok := r.Ratio[s]; !ok {
				t.Errorf("%s: missing system %s", r.Workload, s)
			}
		}
	}
	out := RenderFig9(rows)
	if len(out) == 0 {
		t.Error("empty render")
	}
}

func TestFig10Smoke(t *testing.T) {
	rows := Fig10(fastCfg(), []float64{0.8}, tinySuite()[:1])
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	m := rows[0].Overhead["MAGIS"]
	if math.IsNaN(m) {
		t.Fatal("MAGIS failed at 80%")
	}
	if m < -0.5 || m > 2 {
		t.Errorf("overhead %f implausible", m)
	}
	_ = RenderFig10(rows)
}

func TestFig11Smoke(t *testing.T) {
	curves := Fig11(fastCfg(), tinySuite()[:1], []float64{0.8, 0.6})
	if len(curves) != len(SystemNames) {
		t.Fatalf("curves = %d, want %d", len(curves), len(SystemNames))
	}
	for _, c := range curves {
		if c.System == "MAGIS" && len(c.Points) == 0 {
			t.Error("MAGIS produced no Pareto points")
		}
	}
	_ = RenderFig11(curves)
}

func TestFig12Smoke(t *testing.T) {
	w := models.MLP(2048, 128, 512, 10, 3)
	pts := Fig12(fastCfg(), w, []float64{0.6}, []int{4})
	// POFO, POFO(mb=4), MAGIS at one ratio each.
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	_ = RenderFig12(pts)
}

func TestFig13Smoke(t *testing.T) {
	w := models.MLP(2048, 128, 512, 10, 3)
	cfg := fastCfg()
	cfg.Budget = 150 * time.Millisecond
	curves := Fig13(cfg, w)
	if len(curves) != 5*4 {
		t.Fatalf("curves = %d, want 20", len(curves))
	}
	_ = RenderFig13(curves)
}

func TestFig14Study(t *testing.T) {
	samples := Fig14(fastCfg(), 3, 4)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	sum := Summarize(samples)
	if sum.MeanSpeedup < 1 {
		t.Errorf("incremental scheduling slower than full: %.2fx", sum.MeanSpeedup)
	}
	if sum.QualityPctSame < 50 {
		t.Errorf("incremental quality degraded in most samples: %.0f%%", sum.QualityPctSame)
	}
	_ = RenderFig14(sum)
}

func TestFig15Smoke(t *testing.T) {
	w := models.MLP(2048, 128, 512, 10, 3)
	b := Fig15(fastCfg(), w)
	if b.Iterations == 0 || b.Simulations == 0 {
		t.Fatalf("breakdown empty: %+v", b)
	}
	if b.OtherPct < 0 {
		t.Errorf("phases exceed the worker capacity: Other %.1f%%", b.OtherPct)
	}
	total := b.TransPct + b.CollapsePct + b.HashPct + b.SchedPct + b.SimulPct + b.FTreePct + b.OtherPct
	if math.Abs(total-100) > 0.1 {
		t.Errorf("rows sum to %.2f%%, want 100%%", total)
	}
	_ = RenderFig15(b)
}

func TestFig16Smoke(t *testing.T) {
	w := models.UNetConfig(2, 64, 16, 3)
	series := Fig16(fastCfg(), w)
	if len(series) < 2 {
		t.Fatalf("series = %d", len(series))
	}
	if series[0].Name != "PyTorch" {
		t.Error("first series should be the baseline")
	}
	for _, s := range series[1:] {
		if s.Peak >= series[0].Peak {
			t.Errorf("%s peak %d not below baseline %d", s.Name, s.Peak, series[0].Peak)
		}
	}
	_ = RenderFig16(series)
}

func TestTable2Small(t *testing.T) {
	cfg := Config{Scale: 0.05, Budget: time.Millisecond}
	rows := Table2(cfg)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Peak == 0 || r.Latency == 0 {
			t.Errorf("%s: empty row", r.Name)
		}
	}
	_ = RenderTable2(rows)
}
