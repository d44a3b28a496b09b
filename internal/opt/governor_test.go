package opt

import (
	"fmt"
	"reflect"
	"testing"
)

// govOptions is deterministicOptions with a memory budget and a scripted
// sampler: usedSeq[i] is the live-memory sample at boundary i (the last
// value repeats past the end).
func govOptions(workers, maxIter int, budget int64, usedSeq []uint64) Options {
	o := deterministicOptions(workers)
	o.MaxIterations = maxIter
	o.MemBudget = budget
	i := 0
	o.memUsed = func() uint64 {
		v := usedSeq[min(i, len(usedSeq)-1)]
		i++
		return v
	}
	return o
}

// TestGovernorStopsOverBudget: a search held permanently over budget
// walks the whole shed ladder — evict, shrink, force a GC — then stops with
// StopMemBudget and a non-nil best, like any other anytime stop.
func TestGovernorStopsOverBudget(t *testing.T) {
	o := govOptions(1, 100, 100, []uint64{200})
	res, err := Optimize(fatMLP(), model(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopMemBudget {
		t.Fatalf("Stopped = %v, want mem-budget", res.Stopped)
	}
	if res.Stopped.String() != "mem-budget" {
		t.Fatalf("String() = %q", res.Stopped)
	}
	if res.Best == nil || res.Best.Sched == nil {
		t.Fatal("mem-budget stop must still return best-so-far")
	}
	g := res.Governor
	if g == nil {
		t.Fatal("Governor status missing")
	}
	if g.Stage != 4 {
		t.Fatalf("ladder stage %d, want 4 (stopped)", g.Stage)
	}
	if g.Shrinks != 1 || g.Flushes != 1 {
		t.Fatalf("shrinks=%d flushes=%d, want 1 each", g.Shrinks, g.Flushes)
	}
	if g.PeakBytes != 200 || g.Budget != 100 {
		t.Fatalf("peak=%d budget=%d", g.PeakBytes, g.Budget)
	}
	// The ladder stages each leave a deduplicated diagnostic note.
	if len(res.Diagnostics.Notes) < 3 {
		t.Fatalf("expected shed-ladder notes, got %v", res.Diagnostics.Notes)
	}
}

// TestGovernorRecoversAfterShed: when shedding brings usage back under
// budget, the search keeps running and ends for its ordinary reason.
func TestGovernorRecoversAfterShed(t *testing.T) {
	// Over budget at boundaries 2 and 3 (evict + shrink), under after.
	o := govOptions(1, 12, 100, []uint64{50, 200, 200, 50})
	res, err := Optimize(fatMLP(), model(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped == StopMemBudget {
		t.Fatal("search stopped on mem-budget despite recovering")
	}
	g := res.Governor
	if g == nil || g.Stage != 2 {
		t.Fatalf("governor = %+v, want stage 2", g)
	}
	if g.Samples == 0 || g.PeakBytes != 200 {
		t.Fatalf("samples=%d peak=%d", g.Samples, g.PeakBytes)
	}
}

// TestGovernorEvictsFrontier: stage 1 on a populated frontier records
// evicted states and the queue shrinks to the better half.
func TestGovernorEvictsFrontier(t *testing.T) {
	// Stay under budget long enough to grow a frontier, then spike once.
	seq := make([]uint64, 9)
	for i := range seq {
		seq[i] = 10
	}
	seq[8] = 900
	o := govOptions(1, 12, 100, append(seq, 10))
	res, err := Optimize(fatMLP(), model(), o)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Governor
	if g == nil || g.Stage != 1 {
		t.Fatalf("governor = %+v, want stage 1", g)
	}
	if g.EvictedStates == 0 {
		t.Fatal("stage 1 evicted nothing from a grown frontier")
	}
	if res.Diagnostics.Notes["mem-governor: evicted worst-scoring frontier states"] != 1 {
		t.Fatalf("missing eviction note: %v", res.Diagnostics.Notes)
	}
}

// TestGovernorIdleIsBitIdentical is the determinism contract: a governed
// run whose budget is never exceeded produces exactly the result of an
// ungoverned run, for both pipelines.
func TestGovernorIdleIsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref, err := Optimize(fatMLP(), model(), deterministicOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			o := govOptions(workers, 12, 1<<40, []uint64{1}) // budget never hit
			gov, err := Optimize(fatMLP(), model(), o)
			if err != nil {
				t.Fatal(err)
			}
			if gov.Governor == nil || gov.Governor.Stage != 0 {
				t.Fatalf("governor should have stayed idle: %+v", gov.Governor)
			}
			fr, fg := fingerprint(ref), fingerprint(gov)
			if !reflect.DeepEqual(fr, fg) {
				t.Fatalf("governed-idle run diverged:\nref %+v\ngov %+v", fr, fg)
			}
		})
	}
}

// TestNotesDedupAndCap is the Diagnostics growth bound: repeats collapse
// to counters and distinct messages stop at the cap with an overflow
// marker.
func TestNotesDedupAndCap(t *testing.T) {
	var d Diagnostics
	for i := 0; i < 1000; i++ {
		d.Note("same event")
	}
	if d.Notes["same event"] != 1000 {
		t.Fatalf("dedup count = %d", d.Notes["same event"])
	}
	if len(d.Notes) != 1 {
		t.Fatalf("distinct notes = %d, want 1", len(d.Notes))
	}
	for i := 0; i < 200; i++ {
		d.Note(fmt.Sprintf("distinct-%03d", i))
	}
	if len(d.Notes) > maxKeptNotes+1 {
		t.Fatalf("notes map grew past cap: %d", len(d.Notes))
	}
	if d.NotesDropped == 0 {
		t.Fatal("cap never recorded dropped messages")
	}
	if d.Notes[noteOverflow] == 0 {
		t.Fatal("overflow marker missing")
	}
	// Existing messages keep counting past the cap.
	d.Note("same event")
	if d.Notes["same event"] != 1001 {
		t.Fatal("existing note stopped counting after cap")
	}
}
