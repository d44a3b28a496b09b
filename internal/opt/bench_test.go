package opt

import (
	"testing"

	"magis/internal/ftree"
	"magis/internal/graph"
)

// benchState builds an evaluated, F-Tree'd state of the benchmark MLP —
// the parent-state shape neighbors sees on every queue pop.
func benchState(tb testing.TB) (*State, *Result) {
	tb.Helper()
	res := &Result{}
	ev := newEvaluator(model(), false, false, &res.Stats)
	st := &State{G: fatMLP()}
	if err := ev.evaluate(st, nil, nil); err != nil {
		tb.Fatal(err)
	}
	st.FT = ftree.Build(st.G, st.Hot, ftree.Options{})
	return st, res
}

// BenchmarkNeighbors prices one expansion's candidate generation,
// the allocation-heavy half of every search iteration (rule matching,
// graph clones, copy-on-write F-Trees).
func BenchmarkNeighbors(b *testing.B) {
	st, res := benchState(b)
	o := Options{}
	o.defaults()
	quar := newQuarantine(o.QuarantineAfter)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := neighbors(st, &o, res, quar, nil); len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkWLHash prices the duplicate filter's graph hash with the
// per-evaluator scratch reuse the search uses.
func BenchmarkWLHash(b *testing.B) {
	g := fatMLP()
	var hs graph.HashScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.WLHashScratch(&hs) == 0 {
			b.Fatal("zero hash")
		}
	}
}
