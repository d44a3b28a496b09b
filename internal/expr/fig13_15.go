package expr

import (
	"fmt"
	"strings"
	"time"

	"magis/internal/models"
	"magis/internal/opt"
)

// Fig13Curve is one ablation setting's convergence history under one
// constraint mode (Fig. 13).
type Fig13Curve struct {
	Setting    string
	Constraint string
	History    []opt.HistoryPoint
	// Final best values.
	PeakRatio   float64
	LatOverhead float64
}

// Fig13Settings are the five ablation settings of §7.2.5.
func fig13Settings() []struct {
	name string
	o    opt.Options
} {
	return []struct {
		name string
		o    opt.Options
	}{
		{"naive-fission", opt.Options{NaiveFission: true}},
		{"naive-sch-rule", opt.Options{NaiveSchedRules: true}},
		{"max-level=2", opt.Options{MaxLevel: 2}},
		{"max-level=4", opt.Options{MaxLevel: 4}},
		{"max-level=8", opt.Options{MaxLevel: 8}},
	}
}

// Fig13 runs the heuristic ablation on BERT under the four constraints of
// §7.2.1/§7.2.2 (latency overhead < 10%/5%, memory ratio < 80%/40%).
func Fig13(cfg Config, w *models.Workload) []Fig13Curve {
	cfg = cfg.defaults()
	if w == nil {
		w = cfg.Workloads()[1] // BERT-base
	}
	m := cfg.Model()
	base := opt.Baseline(w.G, m)
	var curves []Fig13Curve
	for _, s := range fig13Settings() {
		if cfg.Ctx.Err() != nil {
			return curves
		}
		for _, mode := range []struct {
			name string
			o    opt.Options
		}{
			{"lat<10%", opt.Options{Mode: opt.MemoryUnderLatency, LatencyLimit: base.Latency * 1.10}},
			{"lat<5%", opt.Options{Mode: opt.MemoryUnderLatency, LatencyLimit: base.Latency * 1.05}},
			{"mem<80%", opt.Options{Mode: opt.LatencyUnderMemory, MemLimit: int64(0.8 * float64(base.PeakMem))}},
			{"mem<40%", opt.Options{Mode: opt.LatencyUnderMemory, MemLimit: int64(0.4 * float64(base.PeakMem))}},
		} {
			o := mode.o
			o.NaiveFission = s.o.NaiveFission
			o.NaiveSchedRules = s.o.NaiveSchedRules
			o.MaxLevel = s.o.MaxLevel
			o.TimeBudget = cfg.Budget
			o.Workers = cfg.Workers
			res, err := opt.OptimizeCtx(cfg.ctx(), w.G, m, o)
			if err != nil {
				continue
			}
			curves = append(curves, Fig13Curve{
				Setting:     s.name,
				Constraint:  mode.name,
				History:     res.History,
				PeakRatio:   float64(res.Best.PeakMem) / float64(base.PeakMem),
				LatOverhead: res.Best.Latency/base.Latency - 1,
			})
		}
	}
	return curves
}

// RenderFig13 formats final ablation results per constraint.
func RenderFig13(curves []Fig13Curve) string {
	cols := []string{"setting", "constraint", "mem-ratio", "lat-overhead", "improvements"}
	var rows [][]string
	for _, c := range curves {
		rows = append(rows, []string{
			c.Setting, c.Constraint,
			Cell(c.PeakRatio, "-"), Cell(c.LatOverhead, "-"),
			fmt.Sprintf("%d", len(c.History)),
		})
	}
	return FormatTable("Fig 13: heuristic ablation (BERT)", cols, rows)
}

// Fig15Breakdown is the optimization-time cost breakdown of Fig. 15. The
// phase shares are of worker capacity, Total × Workers, since the phase
// timers sum the busy time of every search worker; OtherPct is the rest
// of that capacity (queue and merge bookkeeping, idle workers), so the
// shares sum to 100.
type Fig15Breakdown struct {
	Total                           time.Duration
	Workers                         int
	Stats                           opt.Stats
	TransPct, SchedPct, SimulPct    float64
	HashPct, CollapsePct, FTreePct  float64
	OtherPct                        float64
	FilteredShare                   float64
	Iterations, Transformations     int
	Schedules, Simulations, HashOps int
}

// Fig15 runs MAGIS on ViT for the configured budget and reports where the
// time went.
func Fig15(cfg Config, w *models.Workload) Fig15Breakdown {
	cfg = cfg.defaults()
	if w == nil {
		w = cfg.Workloads()[2] // ViT-base
	}
	m := cfg.Model()
	base := opt.Baseline(w.G, m)
	start := time.Now()
	res, err := opt.OptimizeCtx(cfg.ctx(), w.G, m, opt.Options{
		Mode:         opt.MemoryUnderLatency,
		LatencyLimit: base.Latency * 1.10,
		TimeBudget:   cfg.Budget,
		Workers:      cfg.Workers,
	})
	total := time.Since(start)
	workers := opt.ResolveWorkers(cfg.Workers)
	out := Fig15Breakdown{Total: total, Workers: workers}
	if err != nil {
		return out
	}
	s := res.Stats
	out.Stats = s
	capacity := float64(total) * float64(workers)
	pct := func(d time.Duration) float64 { return 100 * float64(d) / capacity }
	out.TransPct = pct(s.TransTime)
	out.SchedPct = pct(s.SchedTime)
	out.SimulPct = pct(s.SimulTime)
	out.HashPct = pct(s.HashTime)
	out.CollapsePct = pct(s.CollapseTime)
	out.FTreePct = pct(s.FTreeTime)
	out.OtherPct = 100 - pct(s.PhaseTime())
	if s.Trans > 0 {
		out.FilteredShare = float64(s.Filtered) / float64(s.Trans)
	}
	out.Iterations = s.Iterations
	out.Transformations = s.Trans
	out.Schedules = s.Sched
	out.Simulations = s.Simul
	out.HashOps = s.Hash
	return out
}

// RenderFig15 formats the breakdown table.
func RenderFig15(b Fig15Breakdown) string {
	var sb strings.Builder
	sb.WriteString("== Fig 15: optimization time breakdown (ViT) ==\n")
	fmt.Fprintf(&sb, "total %v over %d iterations, %d worker(s); shares are of worker time\n",
		b.Total.Round(time.Millisecond), b.Iterations, b.Workers)
	st := b.Stats
	row := func(name string, count any, d time.Duration, pct float64) {
		fmt.Fprintf(&sb, "%-10s count=%6v  time=%8v (%4.1f%%)\n", name, count, d.Round(time.Millisecond), pct)
	}
	row("Trans.", b.Transformations, st.TransTime, b.TransPct)
	row("Collapse", st.Collapse, st.CollapseTime, b.CollapsePct)
	row("Hash", b.HashOps, st.HashTime, b.HashPct)
	row("Sched.", b.Schedules, st.SchedTime, b.SchedPct)
	row("Simul.", b.Simulations, st.SimulTime, b.SimulPct)
	row("F-Tree", "-", st.FTreeTime, b.FTreePct)
	row("Other", "-", b.Total*time.Duration(b.Workers)-st.PhaseTime(), b.OtherPct)
	fmt.Fprintf(&sb, "%-10s count=%6d (%.0f%% of generated states)\n", "Filtered", st.Filtered, 100*b.FilteredShare)
	fmt.Fprintf(&sb, "%-10s count=%6d (incremental splices rescheduled in full)\n", "Fallbacks", st.SchedFallbacks)
	return sb.String()
}
