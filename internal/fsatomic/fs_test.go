package fsatomic_test

// errfs-driven tests for the FS seam: these live in an external test
// package because errfs itself imports fsatomic.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"magis/internal/errfs"
	"magis/internal/fsatomic"
)

func countTemps(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && fsatomic.IsTemp(e.Name()) {
			n++
		}
	}
	return n
}

// TestNoTempDebrisAfterFailedWrites hammers WriteFileFS with every
// write-path fault class and asserts no orphaned *.tmp-* files
// accumulate: the failed write's own cleanup removes them.
func TestNoTempDebrisAfterFailedWrites(t *testing.T) {
	dir := t.TempDir()
	fsys := errfs.New(nil, 0,
		errfs.Rule{Class: errfs.ENOSPC, After: 1, Every: 4},
		errfs.Rule{Class: errfs.ShortWrite, After: 2, Every: 4},
		errfs.Rule{Class: errfs.SyncFail, After: 1, Every: 3},
		errfs.Rule{Class: errfs.RenameFail, After: 1, Every: 2},
	)
	fails := 0
	for i := 0; i < 40; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%02d.dat", i%5))
		if err := fsatomic.WriteFileFS(fsys, p, []byte("payload-payload"), 0o644); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("no writes failed; fault rules did not engage")
	}
	if n := countTemps(t, dir); n != 0 {
		t.Fatalf("%d orphaned temp files after %d failed writes", n, fails)
	}
	// Surviving *.dat files must hold complete payloads (atomicity).
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "payload-payload" {
			t.Fatalf("%s holds torn content %q", e.Name(), data)
		}
	}
}

// TestSweepTemps: when even the temp removal fails (RemoveFail after a
// rename failure), debris is left behind — and SweepTemps clears it on
// the next startup.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	fsys := errfs.New(nil, 0,
		errfs.Rule{Class: errfs.RenameFail, After: 1, Every: 1},
		errfs.Rule{Class: errfs.RemoveFail, After: 1, Every: 1},
	)
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, "x.dat")
		if err := fsatomic.WriteFileFS(fsys, p, []byte("d"), 0o644); err == nil {
			t.Fatal("write succeeded despite rename fault")
		}
	}
	if n := countTemps(t, dir); n != 3 {
		t.Fatalf("expected 3 orphaned temps (cleanup faulted), got %d", n)
	}
	// Subdirectories and regular files survive the sweep.
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp-dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.dat"), []byte("k"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := fsatomic.SweepTemps(nil, dir); n != 3 {
		t.Fatalf("SweepTemps removed %d, want 3", n)
	}
	if n := countTemps(t, dir); n != 0 {
		t.Fatalf("%d temps remain after sweep", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.dat")); err != nil {
		t.Fatalf("sweep removed a regular file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub.tmp-dir")); err != nil {
		t.Fatalf("sweep removed a directory: %v", err)
	}
}

// TestTransientClassification: fd exhaustion and short writes are
// transient; disk-full is not.
func TestTransientClassification(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "t.dat")

	fdfs := errfs.New(nil, 0, errfs.Rule{Class: errfs.FDExhaust, After: 1})
	err := fsatomic.WriteFileFS(fdfs, p, []byte("d"), 0o644)
	if err == nil || !fsatomic.Transient(err) {
		t.Fatalf("fd exhaustion should be transient, got %v", err)
	}

	swfs := errfs.New(nil, 0, errfs.Rule{Class: errfs.ShortWrite, After: 1})
	err = fsatomic.WriteFileFS(swfs, p, []byte("dd"), 0o644)
	if err == nil || !fsatomic.Transient(err) {
		t.Fatalf("short write should be transient, got %v", err)
	}

	nospc := errfs.New(nil, 0, errfs.Rule{Class: errfs.ENOSPC, After: 1})
	err = fsatomic.WriteFileFS(nospc, p, []byte("d"), 0o644)
	if err == nil || fsatomic.Transient(err) {
		t.Fatalf("disk-full should be persistent, got %v", err)
	}
	if !fsatomic.Transient(fmt.Errorf("wrap: %w", syscall.EINTR)) {
		t.Fatal("EINTR should be transient")
	}
}

// TestSealedRoundTripThroughFaultyFS: a sealed write that survives
// faults round-trips; reads through an fd-exhausted FS surface the
// transient sentinel.
func TestSealedRoundTripThroughFaultyFS(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "s.plan")
	fsys := errfs.New(nil, 0, errfs.Rule{Class: errfs.FDExhaust, After: 2})
	if err := fsatomic.WriteSealedFS(fsys, p, "magic", 1, []byte(`{"a":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Op 2 on the FDExhaust counter is this ReadFile.
	if _, err := fsatomic.ReadSealedFS(fsys, p, "magic", 1); err == nil || !fsatomic.Transient(err) {
		t.Fatalf("read under fd exhaustion: %v", err)
	}
	got, err := fsatomic.ReadSealedFS(fsys, p, "magic", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":1}` {
		t.Fatalf("payload %q", got)
	}
}

// TestQuarantine: a quarantined file keeps its name, suffixed .1, .2, ...
// on collision, and a failed rename comes back as the error with the
// file left in place.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, fsatomic.QuarantineDir)
	for i, want := range []string{"bad.plan", "bad.plan.1", "bad.plan.2"} {
		if err := os.WriteFile(filepath.Join(dir, "bad.plan"), []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		dst, err := fsatomic.Quarantine(nil, dir, "bad.plan")
		if err != nil {
			t.Fatal(err)
		}
		if dst != filepath.Join(qdir, want) {
			t.Fatalf("quarantine %d went to %s, want %s", i, dst, want)
		}
		if data, err := os.ReadFile(dst); err != nil || data[0] != byte(i) {
			t.Fatalf("quarantined %s holds %v (%v)", want, data, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.plan")); !os.IsNotExist(err) {
		t.Fatalf("source survived the move: %v", err)
	}

	if err := os.WriteFile(filepath.Join(dir, "stuck.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := errfs.New(nil, 0, errfs.Rule{Class: errfs.RenameFail, After: 1})
	if dst, err := fsatomic.Quarantine(fsys, dir, "stuck.ckpt"); !errors.Is(err, syscall.EIO) || dst != "" {
		t.Fatalf("faulted quarantine = %q, %v; want the rename's EIO", dst, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "stuck.ckpt")); err != nil {
		t.Fatalf("faulted quarantine lost the file: %v", err)
	}
}

// TestPrune: files beyond the count go oldest first by (mtime, name),
// files past the age bound go regardless of the count, directories and
// unmatched names are never touched, and a file whose removal fails is
// left and reported as the error.
func TestPrune(t *testing.T) {
	now := time.Now()
	setup := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		for name, age := range map[string]time.Duration{
			"a": 5 * time.Hour, "b": 3 * time.Hour, "c": 3 * time.Hour,
			"d": time.Hour, "e": time.Minute, "skip": 9 * time.Hour,
		} {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, []byte(name), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(p, now.Add(-age), now.Add(-age)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	match := func(name string) bool { return name != "skip" }
	left := func(t *testing.T, dir string) string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return strings.Join(names, ",")
	}
	cases := []struct {
		name          string
		max           int
		maxAge        time.Duration
		removed, left string
	}{
		{"count, ties by name", 2, 0, "a,b,c", "d,e,skip,sub"},
		{"under the count", 5, 0, "", "a,b,c,d,e,skip,sub"},
		{"age only", 0, 2 * time.Hour, "a,b,c", "d,e,skip,sub"},
		{"age then count", 1, 4 * time.Hour, "a,b,c,d", "e,skip,sub"},
		{"no bound", 0, 0, "", "a,b,c,d,e,skip,sub"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := setup(t)
			removed, err := fsatomic.Prune(nil, dir, match, tc.max, tc.maxAge)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(removed)
			if got := strings.Join(removed, ","); got != tc.removed {
				t.Errorf("removed %q, want %q", got, tc.removed)
			}
			if got := left(t, dir); got != tc.left {
				t.Errorf("left %q, want %q", got, tc.left)
			}
		})
	}

	t.Run("remove fault", func(t *testing.T) {
		dir := setup(t)
		fsys := errfs.New(nil, 0, errfs.Rule{Class: errfs.RemoveFail, After: 1})
		removed, err := fsatomic.Prune(fsys, dir, match, 3, 0)
		if !errors.Is(err, syscall.EIO) || strings.Join(removed, ",") != "b" {
			t.Fatalf("Prune = %v, %v; want b removed and the fault's EIO", removed, err)
		}
		if got := left(t, dir); got != "a,c,d,e,skip,sub" {
			t.Fatalf("left %q, want the unremovable oldest kept", got)
		}
	})
}
