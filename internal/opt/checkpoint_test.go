package opt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"magis/internal/fsatomic"
)

// checkpointOptions mirrors deterministicOptions with checkpointing on:
// EveryN=1 flushes at every expansion boundary, so any interruption point
// has a fresh snapshot.
func checkpointOptions(workers, maxIter int, path string) Options {
	o := deterministicOptions(workers)
	o.MaxIterations = maxIter
	o.Checkpoint = Checkpoint{Path: path, EveryN: 1, Label: "test"}
	return o
}

// ckSummary is the bit-exactness fingerprint of a run: everything the
// determinism guarantee covers (no wall-clock fields).
type ckSummary struct {
	bestHash   uint64
	peakMem    int64
	latBits    uint64
	iterations int
	trans      int
	filtered   int
	sched      int
	simul      int
	fallbacks  int
	stopped    StopReason
	history    [][2]uint64 // (peak, latency bits) sequence
}

func fingerprint(res *Result) ckSummary {
	s := ckSummary{
		bestHash:   res.Best.EvalG.WLHash(),
		peakMem:    res.Best.PeakMem,
		latBits:    math.Float64bits(res.Best.Latency),
		iterations: res.Stats.Iterations,
		trans:      res.Stats.Trans,
		filtered:   res.Stats.Filtered,
		sched:      res.Stats.Sched,
		simul:      res.Stats.Simul,
		fallbacks:  res.Stats.SchedFallbacks,
		stopped:    res.Stopped,
	}
	for _, h := range res.History {
		s.history = append(s.history, [2]uint64{uint64(h.PeakMem), math.Float64bits(h.Latency)})
	}
	return s
}

// TestCheckpointKillResumeDeterminism is the core crash-safety guarantee:
// a run interrupted at an expansion boundary and resumed from its
// checkpoint produces a bit-identical result — best graph, metrics,
// stats counters, history — to a run that was never interrupted, for both
// the sequential and the parallel pipeline.
func TestCheckpointKillResumeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const fullIter = 12
			// Reference: uninterrupted run (no checkpointing at all, so the
			// test also proves checkpoint encoding has no side effects).
			ref, err := Optimize(fatMLP(), model(), deterministicOptions(workers))
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: stop after half the budget. StopExhausted
			// exits at an expansion boundary, standing in for a crash whose
			// last flushed snapshot was that boundary.
			path := filepath.Join(t.TempDir(), "search.ckpt")
			half, err := Optimize(fatMLP(), model(), checkpointOptions(workers, fullIter/2, path))
			if err != nil {
				t.Fatal(err)
			}
			if half.Stopped != StopExhausted {
				t.Fatalf("interrupted run stopped %v, want exhausted", half.Stopped)
			}
			if half.Checkpoint == nil || half.Checkpoint.Writes == 0 {
				t.Fatalf("interrupted run wrote no checkpoints: %+v", half.Checkpoint)
			}
			if half.Checkpoint.Err != "" {
				t.Fatalf("checkpoint error: %s", half.Checkpoint.Err)
			}

			res, err := Resume(context.Background(), path, model(), func(o *Options) {
				o.MaxIterations = fullIter
			})
			if err != nil {
				t.Fatal(err)
			}
			got, want := fingerprint(res), fingerprint(ref)
			if got.bestHash != want.bestHash {
				t.Errorf("best graph hash: resumed %x, straight %x", got.bestHash, want.bestHash)
			}
			if got.peakMem != want.peakMem || got.latBits != want.latBits {
				t.Errorf("best metrics: resumed (%d, %x), straight (%d, %x)",
					got.peakMem, got.latBits, want.peakMem, want.latBits)
			}
			if got.iterations != want.iterations || got.trans != want.trans ||
				got.filtered != want.filtered || got.sched != want.sched || got.simul != want.simul ||
				got.fallbacks != want.fallbacks {
				t.Errorf("stats: resumed %+v, straight %+v", got, want)
			}
			if got.stopped != want.stopped {
				t.Errorf("stopped: resumed %v, straight %v", got.stopped, want.stopped)
			}
			if len(got.history) != len(want.history) {
				t.Fatalf("history length: resumed %d, straight %d", len(got.history), len(want.history))
			}
			for i := range got.history {
				if got.history[i] != want.history[i] {
					t.Errorf("history[%d]: resumed %v, straight %v", i, got.history[i], want.history[i])
				}
			}
		})
	}
}

// TestCheckpointResumeAfterCancel covers the cancellation path: a run
// cancelled via its context leaves a resumable snapshot, and resuming
// reaches the same final result as a run that was never cancelled.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	ref, err := Optimize(fatMLP(), model(), deterministicOptions(1))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "search.ckpt")
	o := checkpointOptions(1, 12, path)
	ctx, cancel := context.WithCancel(context.Background())
	o.OnExpansion = func(completed int) {
		if completed == 5 {
			cancel()
		}
	}
	half, err := OptimizeCtx(ctx, fatMLP(), model(), o)
	if err != nil {
		t.Fatal(err)
	}
	if half.Stopped != StopCancelled {
		t.Fatalf("cancelled run stopped %v, want cancelled", half.Stopped)
	}

	res, err := Resume(context.Background(), path, model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, want := fingerprint(res), fingerprint(ref)
	if got.bestHash != want.bestHash || got.peakMem != want.peakMem ||
		got.latBits != want.latBits || got.iterations != want.iterations {
		t.Errorf("resumed run diverged: %+v vs %+v", got, want)
	}
}

// TestResumeHistoryMonotone checks that History is stamped with the
// search's elapsed time across incarnations: after a resume, a new best
// is stamped after every restored point. The first incarnation sleeps
// after each expansion, so its clock runs well ahead of the time the
// resumed one takes to find its next best.
func TestResumeHistoryMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	o := checkpointOptions(1, 2, path)
	o.OnExpansion = func(int) { time.Sleep(20 * time.Millisecond) }
	half, err := Optimize(fatMLP(), model(), o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), path, model(), func(o *Options) {
		o.MaxIterations = 12
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) <= len(half.History) {
		t.Fatalf("no new best after the resume (%d points before, %d after): nothing to check",
			len(half.History), len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if prev, cur := res.History[i-1].Elapsed, res.History[i].Elapsed; cur < prev {
			t.Errorf("History[%d] stamped at %v, before History[%d] at %v", i, cur, i-1, prev)
		}
	}
}

// TestReadCheckpointInfo verifies the cheap metadata view.
func TestReadCheckpointInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	res, err := Optimize(fatMLP(), model(), checkpointOptions(2, 6, path))
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Label != "test" {
		t.Errorf("label %q, want %q", info.Label, "test")
	}
	if info.Iterations != res.Stats.Iterations {
		t.Errorf("iterations %d, want %d", info.Iterations, res.Stats.Iterations)
	}
	if info.Workers != 2 {
		t.Errorf("workers %d, want 2", info.Workers)
	}
	if info.BestPeakMem != res.Best.PeakMem {
		t.Errorf("best peak %d, want %d", info.BestPeakMem, res.Best.PeakMem)
	}
	if info.BestLatency != res.Best.Latency {
		t.Errorf("best latency %v, want %v", info.BestLatency, res.Best.Latency)
	}
}

// TestCheckpointRejectsCorruption verifies the envelope validation: a
// flipped payload byte, a wrong version, a wrong magic, and a missing file
// all fail with descriptive errors instead of restoring garbage.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	if _, err := Optimize(fatMLP(), model(), checkpointOptions(1, 4, path)); err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(env map[string]json.RawMessage)) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		f(env)
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Corrupt a payload byte while keeping the JSON well-formed (flip one
	// character of the embedded label): only the checksum can catch this.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = []byte(strings.Replace(string(raw), `"test"`, `"tesu"`, 1))
	corrupted := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupted, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), corrupted, model(), nil); err == nil {
		t.Error("corrupted payload resumed without error")
	} else if !errors.Is(err, fsatomic.ErrChecksum) {
		t.Errorf("corrupted payload error %q, want fsatomic.ErrChecksum", err)
	}

	wrongVersion := mutate("version.ckpt", func(env map[string]json.RawMessage) {
		env["version"] = json.RawMessage("999")
	})
	if _, err := Resume(context.Background(), wrongVersion, model(), nil); err == nil {
		t.Error("wrong version resumed without error")
	} else if !errors.Is(err, fsatomic.ErrVersion) || !strings.Contains(err.Error(), "version 999") {
		t.Errorf("version error %q, want fsatomic.ErrVersion naming version 999", err)
	}

	wrongMagic := mutate("magic.ckpt", func(env map[string]json.RawMessage) {
		env["magic"] = json.RawMessage(`"not-a-checkpoint"`)
	})
	if _, err := Resume(context.Background(), wrongMagic, model(), nil); err == nil {
		t.Error("wrong magic resumed without error")
	} else if want := `magic "not-a-checkpoint"`; !strings.Contains(err.Error(), want) {
		t.Errorf("magic error %q, want substring %q", err, want)
	}

	if _, err := Resume(context.Background(), filepath.Join(dir, "absent.ckpt"), model(), nil); err == nil {
		t.Error("missing file resumed without error")
	}
}

// TestCheckpointWithoutSchedFallbacksResumes keeps checkpoints written
// before Stats.SchedFallbacks, and before the Collapse and F-Tree phase
// timers, existed readable: a snapshot whose stats lack those fields
// resumes to the same plan as one that has them.
func TestCheckpointWithoutSchedFallbacksResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	if _, err := Optimize(fatMLP(), model(), checkpointOptions(1, 6, path)); err != nil {
		t.Fatal(err)
	}
	extend := func(o *Options) { o.MaxIterations = 12 }
	want, err := Resume(context.Background(), path, model(), extend)
	if err != nil {
		t.Fatal(err)
	}
	for _, missing := range [][]string{
		{"SchedFallbacks"},
		{"SchedFallbacks", "Collapse", "CollapseTime", "FTreeTime"},
	} {
		payload, err := readSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(payload, &snap); err != nil {
			t.Fatal(err)
		}
		var stats map[string]json.RawMessage
		if err := json.Unmarshal(snap["stats"], &stats); err != nil {
			t.Fatal(err)
		}
		for _, field := range missing {
			if _, ok := stats[field]; !ok {
				t.Fatalf("snapshot stats lack %s: %s", field, snap["stats"])
			}
			delete(stats, field)
		}
		if snap["stats"], err = json.Marshal(stats); err != nil {
			t.Fatal(err)
		}
		if payload, err = json.Marshal(snap); err != nil {
			t.Fatal(err)
		}
		oldPath := filepath.Join(dir, "old.ckpt")
		if err := fsatomic.WriteSealed(oldPath, checkpointMagic, CheckpointVersion, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Resume(context.Background(), oldPath, model(), extend)
		if err != nil {
			t.Fatalf("checkpoint without %v: %v", missing, err)
		}
		g, w := fingerprint(got), fingerprint(want)
		if g.bestHash != w.bestHash || g.peakMem != w.peakMem || g.latBits != w.latBits ||
			g.iterations != w.iterations {
			t.Errorf("without %v: resumed plans differ: %+v vs %+v", missing, g, w)
		}
	}
}
