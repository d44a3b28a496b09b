package expr

import (
	"testing"

	"magis/internal/models"
	"magis/internal/opt"
)

// TestMotivationFigure2 reproduces the paper's motivation example (Fig. 2):
// a long skip-connection chain where all forward tensors are alive at the
// turning point. Scheduling alone (swap/remat, no fission) can meet a
// tight memory limit only by paying transfer/recompute latency; adding
// fission transformation reaches the same limit cheaper — the coordinated
// optimizer must therefore dominate the fission-disabled one.
func TestMotivationFigure2(t *testing.T) {
	// 32 forward tensors of 256 KB each, mirrored consumption.
	g, _ := models.SkipChain(32, 64*1024)
	m := (Config{}).defaults().Model()
	base := opt.Baseline(g, m)

	limit := int64(float64(base.PeakMem) * 0.35)
	// Fixed work, so the outcome does not depend on machine speed. On its
	// way down the full search's best passes through plans of about 2.9 MB
	// that the scheduling-only result dominates; it reaches its final
	// 2.6 MB / 1.06 ms plan by iteration 300.
	const iters = 320

	full, err := opt.Optimize(g, m, opt.Options{
		Mode: opt.LatencyUnderMemory, MemLimit: limit, MaxIterations: iters, TimeBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	schedOnly, err := opt.Optimize(g, m, opt.Options{
		Mode: opt.LatencyUnderMemory, MemLimit: limit, MaxIterations: iters, TimeBudget: -1,
		DisableFission: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %.1f MB / %.2f ms", mbf(base.PeakMem), base.Latency*1e3)
	t.Logf("full MAGIS:  %.1f MB / %.2f ms", mbf(full.Best.PeakMem), full.Best.Latency*1e3)
	t.Logf("sched-only:  %.1f MB / %.2f ms", mbf(schedOnly.Best.PeakMem), schedOnly.Best.Latency*1e3)

	if full.Best.PeakMem > limit {
		t.Errorf("coordinated optimizer missed the limit: %d > %d", full.Best.PeakMem, limit)
	}
	// Dominance: at equal-or-better memory, full MAGIS must not be slower;
	// or it reaches strictly lower memory.
	if full.Best.PeakMem >= schedOnly.Best.PeakMem && full.Best.Latency >= schedOnly.Best.Latency &&
		!(full.Best.PeakMem == schedOnly.Best.PeakMem && full.Best.Latency == schedOnly.Best.Latency) {
		t.Errorf("fission-enabled dominated by scheduling-only: (%d, %g) vs (%d, %g)",
			full.Best.PeakMem, full.Best.Latency, schedOnly.Best.PeakMem, schedOnly.Best.Latency)
	}
}

func mbf(b int64) float64 { return float64(b) / (1 << 20) }
