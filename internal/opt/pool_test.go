package opt

import (
	"context"
	"fmt"
	"testing"

	"magis/internal/graph"
)

// TestPoolOwnership runs searches with one worker, with two, and with a
// memory governor that flushes the graph pools mid-run, then checks the
// recycling invariant (see pool.go): no shell is on two free lists, or
// twice on one, and no pooled shell is the G or EvalG of the best state
// or of any frontier state. It also checks that every live state with no
// enabled region evaluates its own logical graph, and that every state
// with one has a private evaluation graph.
func TestPoolOwnership(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       Options
		flushes int
	}{
		{"workers=1", deterministicOptions(1), 0},
		{"workers=2", deterministicOptions(2), 0},
		{"governor-flush", govOptions(2, 12, 100, []uint64{200, 200, 200, 50}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.defaults()
			g := fatMLP()
			l, err := newSearch(g, model(), &o)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.begin(g, nil); err != nil {
				t.Fatal(err)
			}
			l.run(context.Background())
			flushes := 0
			if gs := l.res.Governor; gs != nil {
				flushes = gs.Flushes
			}
			if flushes != tc.flushes {
				t.Fatalf("%d pool flushes, want %d", flushes, tc.flushes)
			}

			pooled := make(map[*graph.Graph]string)
			for w, ev := range l.pool.evs {
				for i, sh := range ev.gp.free {
					where := fmt.Sprintf("worker %d's free list, slot %d", w, i)
					if prev, dup := pooled[sh]; dup {
						t.Fatalf("one shell is on %s and on %s", prev, where)
					}
					pooled[sh] = where
				}
			}
			if len(pooled) == 0 {
				t.Fatal("the pools are empty: nothing to check")
			}

			aliased, private := 0, 0
			for i, s := range append([]*State{l.best}, l.q.items...) {
				if where, ok := pooled[s.G]; ok {
					t.Errorf("live state %d: G is pooled (%s)", i, where)
				}
				if where, ok := pooled[s.EvalG]; ok {
					t.Errorf("live state %d: EvalG is pooled (%s)", i, where)
				}
				enabled := len(s.FT.EnabledNodes()) > 0
				if enabled == (s.EvalG == s.G) {
					t.Errorf("live state %d: enabled regions %v, but EvalG == G is %v", i, enabled, s.EvalG == s.G)
				}
				if s.EvalG == s.G {
					aliased++
				} else {
					private++
				}
			}
			t.Logf("%d pooled shells; live states: %d evaluate G, %d a private copy", len(pooled), aliased, private)
			if aliased == 0 || private == 0 {
				t.Errorf("live states: %d evaluate G, %d a private copy; both kinds must be checked", aliased, private)
			}
		})
	}
}
