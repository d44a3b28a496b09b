package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// The differential evaluation oracle runs the incremental and from-scratch
// evaluation paths side by side on randomized rewrite sequences drawn from
// the real pipeline (rule application → region collapse → WL hash →
// incremental reschedule → simulation) and checks:
//
//   - hash equality (exact): WLHashFrom spliced into the parent's label
//     snapshot is bit-identical to a from-scratch WLHashScratch of the same
//     evaluation graph;
//   - schedule validity (exact): the incremental schedule is a valid
//     execution order of the evaluation graph;
//   - peak consistency (exact): the state's recorded peak equals an
//     independent re-simulation of its schedule;
//   - peak quality (windowed): the incremental schedule's peak is within
//     Window of a full ScheduleGraph reschedule. The two are different
//     valid heuristics, so this bound is deliberately loose — it catches
//     an incremental path gone off the rails, not heuristic noise.
//
// RunOracle is the engine behind TestDifferentialOracle and
// FuzzDifferentialOracle.

// OracleConfig parameterizes a differential oracle run.
type OracleConfig struct {
	// Model prices latencies (required).
	Model *cost.Model
	// Graphs are the seed workloads; sequence i starts from Graphs[i%len].
	Graphs []*graph.Graph
	// Sequences is the number of randomized rewrite sequences (default 100).
	Sequences int
	// Depth is the number of chained rewrite steps per sequence (default 3).
	Depth int
	// MaxCandidates bounds how many of each step's candidates are compared
	// (default 4; candidates are sampled without replacement).
	MaxCandidates int
	// Seed derives each sequence's RNG (sequence i uses Seed+i).
	Seed int64
	// Window is the allowed incremental/full peak-memory ratio (default 2).
	Window float64
}

func (c *OracleConfig) defaults() {
	if c.Sequences == 0 {
		c.Sequences = 100
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 4
	}
	if c.Window == 0 {
		c.Window = 2
	}
}

// OracleReport summarizes a differential oracle run.
type OracleReport struct {
	// Sequences and Steps count completed rewrite sequences and chained
	// steps within them.
	Sequences, Steps int
	// HashChecks counts incremental-vs-scratch hash comparisons; each one
	// asserted bit equality.
	HashChecks int
	// SchedChecks counts evaluated candidates whose schedule was validated
	// and whose peak was re-simulated and window-compared.
	SchedChecks int
	// Mismatches lists every violated assertion; empty means the
	// incremental and full paths agreed everywhere.
	Mismatches []string
}

// OK reports whether every comparison agreed.
func (r *OracleReport) OK() bool { return len(r.Mismatches) == 0 }

// String renders a one-screen summary.
func (r *OracleReport) String() string {
	s := fmt.Sprintf("oracle: %d sequences, %d steps, %d hash / %d sched checks, %d mismatches\n",
		r.Sequences, r.Steps, r.HashChecks, r.SchedChecks, len(r.Mismatches))
	for i, m := range r.Mismatches {
		if i == 10 {
			s += fmt.Sprintf("  ... %d more\n", len(r.Mismatches)-10)
			break
		}
		s += "  MISMATCH " + m + "\n"
	}
	return s
}

func (r *OracleReport) mismatch(format string, args ...interface{}) {
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
}

// RunOracle executes the differential oracle.
func RunOracle(cfg OracleConfig) *OracleReport {
	cfg.defaults()
	rep := &OracleReport{}
	if cfg.Model == nil || len(cfg.Graphs) == 0 {
		rep.mismatch("config: Model and at least one graph are required")
		return rep
	}
	for seq := 0; seq < cfg.Sequences; seq++ {
		oracleSequence(&cfg, rep, seq)
		rep.Sequences++
	}
	return rep
}

// oracleSequence walks one randomized rewrite chain. The search's
// evaluator carries parent WL snapshots across steps and shares one reach
// index per expansion exactly like the search loop; the reference
// evaluator re-derives the hash and the schedule from scratch for
// comparison.
func oracleSequence(cfg *OracleConfig, rep *OracleReport, seq int) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(seq)))
	o := &Options{Workers: 1}
	o.defaults()
	ftOpts := ftree.Options{MaxLevel: o.MaxLevel, MaxCandidates: o.MaxCandidates}

	var stats Stats
	inc := newEvaluator(cfg.Model, &stats)
	ref := newEvaluator(cfg.Model, &stats) // evaluates with no parent: from scratch

	parent := &State{G: cfg.Graphs[seq%len(cfg.Graphs)].Clone()}
	if err := guard("oracle", "initial evaluation", func() error {
		if err := inc.evaluate(parent, nil, nil); err != nil {
			return err
		}
		inc.hash(parent, nil) // capture the WL snapshot children splice into
		inc.hot(parent)
		parent.FT = ftree.Build(parent.G, parent.Hot, ftOpts)
		return nil
	}); err != nil {
		rep.mismatch("seq %d: initial evaluation failed: %v", seq, err)
		return
	}

	for step := 0; step < cfg.Depth; step++ {
		res := &Result{}
		quar := newQuarantine(o.QuarantineAfter)
		cands := neighbors(parent, o, res, quar)
		if len(cands) == 0 {
			return
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if len(cands) > cfg.MaxCandidates {
			cands = cands[:cfg.MaxCandidates]
		}
		inc.rc = &reachCache{g: parent.EvalG}

		var next *State
		for _, cand := range cands {
			if oracleCandidate(cfg, rep, seq, step, inc, ref, parent, cand) && next == nil {
				next = cand.state
			}
		}
		if next == nil {
			return
		}
		inc.hot(next)
		if next.stale {
			if err := guard("oracle", "tree rebuild", func() error {
				next.FT = rebuildTree(next, ftOpts)
				return nil
			}); err != nil {
				next.FT = &ftree.Tree{}
			}
			next.stale = false
		}
		parent = next
		rep.Steps++
	}
}

// oracleCandidate runs both evaluation paths on one candidate and records
// any disagreement. Returns true when the candidate evaluated cleanly on
// the incremental path and may seed the next step; its state then holds
// the incremental results, exactly as the search would leave them.
func oracleCandidate(cfg *OracleConfig, rep *OracleReport, seq, step int, inc, ref *evaluator, parent *State, cand *candidate) bool {
	where := fmt.Sprintf("seq %d step %d %s[%s]", seq, step, cand.rule, cand.site)
	if err := guard(cand.rule, cand.site, func() error {
		return inc.collapse(cand.state)
	}); err != nil {
		return false // rejected candidates are not comparable, only skipped
	}
	hInc := inc.hash(cand.state, parent)
	hRef := cand.state.EvalG.WLHashScratch(&ref.hs)
	if hInc != hRef {
		rep.mismatch("%s: incremental hash %x != from-scratch %x", where, hInc, hRef)
	}
	rep.HashChecks++

	if err := guard(cand.rule, cand.site, func() error {
		return inc.evaluate(cand.state, parent, cand.oldMutated)
	}); err != nil {
		return false
	}
	s := cand.state
	if err := s.Sched.Validate(s.EvalG); err != nil {
		rep.mismatch("%s: incremental schedule invalid: %v", where, err)
		return false
	}
	if p := sched.Simulate(s.EvalG, s.Sched).Peak; p != s.PeakMem {
		rep.mismatch("%s: recorded peak %d != re-simulated %d", where, s.PeakMem, p)
	}

	// Full-reschedule reference: evaluate with no parent (a from-scratch
	// ScheduleGraph), then restore the incremental results so the chained
	// walk matches a real search trajectory.
	incSched, incPeak, incLat := s.Sched, s.PeakMem, s.Latency
	if err := guard(cand.rule, cand.site, func() error {
		return ref.evaluate(s, nil, nil)
	}); err == nil {
		if err := s.Sched.Validate(s.EvalG); err != nil {
			rep.mismatch("%s: full schedule invalid: %v", where, err)
		}
		if float64(incPeak) > cfg.Window*float64(s.PeakMem) {
			rep.mismatch("%s: incremental peak %d exceeds %.1fx full-reschedule peak %d",
				where, incPeak, cfg.Window, s.PeakMem)
		}
	}
	s.Sched, s.PeakMem, s.Latency = incSched, incPeak, incLat
	rep.SchedChecks++
	return true
}

// TestDifferentialOracle runs the incremental and from-scratch evaluation
// paths side by side over randomized rewrite sequences through the real
// pipeline: at least 100 sequences, identical hashes, valid schedules,
// consistent peaks.
func TestDifferentialOracle(t *testing.T) {
	seqs := 100
	if testing.Short() {
		seqs = 20
	}
	rep := RunOracle(OracleConfig{
		Model: model(),
		Graphs: []*graph.Graph{
			models.MLP(512, 64, 128, 10, 3).G,
			models.UNet(4, 64).G,
			models.TransformerLM("oracle-lm", 1, 8, 32, 2, 2, 128, tensor.TF32, false).G,
		},
		Sequences: seqs,
		Depth:     3,
		Seed:      42,
	})
	t.Log(rep.String())
	if !rep.OK() {
		t.Fatalf("differential oracle found %d mismatches:\n%s", len(rep.Mismatches), rep)
	}
	if rep.HashChecks < seqs {
		t.Fatalf("oracle compared only %d hashes over %d sequences — the walk is not exercising the pipeline", rep.HashChecks, seqs)
	}
	if rep.SchedChecks == 0 {
		t.Fatal("oracle ran no schedule comparisons")
	}
}

// FuzzDifferentialOracle lets the fuzzer drive the sequence seed: any
// rewrite chain the mutator discovers must keep the incremental and
// from-scratch paths in agreement. CI runs this with a short -fuzztime
// budget on top of the fixed-seed test above.
func FuzzDifferentialOracle(f *testing.F) {
	m := model()
	graphs := []*graph.Graph{models.MLP(512, 64, 128, 10, 3).G}
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rep := RunOracle(OracleConfig{
			Model:     m,
			Graphs:    graphs,
			Sequences: 1,
			Depth:     2,
			Seed:      seed,
		})
		if !rep.OK() {
			t.Fatalf("seed %d: %s", seed, rep)
		}
	})
}
