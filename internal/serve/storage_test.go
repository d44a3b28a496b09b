package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"magis/internal/errfs"
	"magis/internal/opt"
)

// TestStorageHealthMachine pins the state machine itself: degrade at the
// threshold, refuse during the window, grant exactly one probe after the
// cooloff, re-degrade on a failed probe, recover on a good one.
func TestStorageHealthMachine(t *testing.T) {
	now := time.Now()
	h := &storageCircuit{circuitPolicy: circuitPolicy{2, time.Minute}}
	if h.current() != storageHealthy {
		t.Fatalf("initial state %q", h.current())
	}
	if ok, _ := h.allow(now); !ok {
		t.Fatal("healthy machine refused persistence")
	}
	if h.fail(now) {
		t.Fatal("degraded below threshold")
	}
	if !h.fail(now) {
		t.Fatal("did not degrade at threshold")
	}
	if h.current() != storageDegraded {
		t.Fatalf("state %q after threshold faults", h.current())
	}
	// Inside the window: no persistence, no probe.
	if ok, probe := h.allow(now.Add(30 * time.Second)); ok || probe {
		t.Fatalf("allow inside window = %v/%v", ok, probe)
	}
	// Past the window: exactly one probe.
	late := now.Add(2 * time.Minute)
	if ok, probe := h.allow(late); !ok || !probe {
		t.Fatalf("first allow past window = %v/%v, want probe", ok, probe)
	}
	if ok, _ := h.allow(late); ok {
		t.Fatal("second caller got persistence while the probe is out")
	}
	// Failed probe: a trip, straight back into a fresh window.
	if !h.fail(late) {
		t.Fatal("failed probe did not report a trip")
	}
	if ok, _ := h.allow(late.Add(30 * time.Second)); ok {
		t.Fatal("window did not restart after failed probe")
	}
	// Abandoned probe frees the slot for the next caller.
	later := late.Add(3 * time.Minute)
	if ok, probe := h.allow(later); !ok || !probe {
		t.Fatalf("probe not re-granted after restart: %v/%v", ok, probe)
	}
	h.c.abandon()
	if ok, probe := h.allow(later); !ok || !probe {
		t.Fatalf("abandoned probe slot not released: %v/%v", ok, probe)
	}
	// Successful probe recovers.
	if !h.succeed() {
		t.Fatal("successful probe did not report recovery")
	}
	if h.current() != storageRecovered {
		t.Fatalf("state %q after recovery", h.current())
	}
	if ok, probe := h.allow(later); !ok || probe {
		t.Fatalf("recovered allow = %v/%v", ok, probe)
	}
	// Disabled machine never interferes.
	off := &storageCircuit{circuitPolicy: circuitPolicy{-1, time.Minute}}
	for i := 0; i < 10; i++ {
		off.fail(now)
	}
	if ok, _ := off.allow(now); !ok {
		t.Fatal("disabled machine degraded")
	}
}

// TestStorageDegradedServing is the tentpole serving contract, end to end
// with real searches: when every checkpoint write hits ENOSPC, jobs keep
// completing — never a 5xx from storage — and once the fault streak trips
// the health machine, later jobs run uncheckpointed with the
// degraded_storage label while /healthz and /metrics say why.
func TestStorageDegradedServing(t *testing.T) {
	dir := t.TempDir()
	fsys := errfs.New(nil, 0, errfs.Rule{Class: errfs.ENOSPC, After: 1, Every: 1})
	s := New(Config{
		Model:            testModel(),
		Workers:          1,
		QueueDepth:       8,
		CheckpointDir:    dir,
		CheckpointEveryN: 1,
		FS:               fsys,
		StorageThreshold: 2,
		StorageCooloff:   time.Hour, // no probe during this test
		StallWindow:      -1,
		Logf:             t.Logf,
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runOne := func() map[string]any {
		t.Helper()
		code, body := post(t, ts, `{"model":"mlp","scale":0.05,"iterations":2,"workers":1}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %v", code, body)
		}
		id := body["id"].(string)
		waitFor(t, id+" to settle", func() bool {
			_, v := get(t, ts, "/jobs/"+id)
			if v["state"] == stateFailed {
				t.Fatalf("storage fault failed the job: %v", v)
			}
			return v["state"] == stateDone
		})
		_, v := get(t, ts, "/jobs/"+id)
		return v
	}

	// The first jobs eat the faults: they complete, their checkpoint
	// failures count against storage health, their answers are not yet
	// labeled (the verdict lands at finish, after the search ran with
	// persistence enabled).
	for i := 0; i < 2; i++ {
		v := runOne()
		res := v["result"].(map[string]any)
		if res["degraded_storage"] == true {
			t.Fatalf("job %d labeled degraded before the machine tripped: %v", i, v)
		}
	}
	_, hz := get(t, ts, "/healthz")
	if hz["storage"] != storageDegraded {
		t.Fatalf("healthz storage = %v after %d faults, want degraded", hz["storage"], 2)
	}

	// Past the threshold: jobs run uncached/uncheckpointed and say so.
	v := runOne()
	res := v["result"].(map[string]any)
	if res["degraded_storage"] != true {
		t.Fatalf("degraded-era job missing degraded_storage label: %v", v)
	}
	if res["peak_mem_bytes"].(float64) <= 0 {
		t.Fatalf("degraded job has no real result: %v", res)
	}
	if _, err := os.Stat(s.checkpointPath(v["id"].(string))); !os.IsNotExist(err) {
		t.Error("degraded job wrote a checkpoint through the gate")
	}

	_, mets := get(t, ts, "/metrics")
	if mets["storage_state"] != storageDegraded {
		t.Errorf("metrics storage_state = %v", mets["storage_state"])
	}
	if mets["storage_faults"].(float64) < 2 {
		t.Errorf("storage_faults = %v, want >= 2", mets["storage_faults"])
	}
	if mets["storage_degraded_jobs"].(float64) != 1 {
		t.Errorf("storage_degraded_jobs = %v, want 1", mets["storage_degraded_jobs"])
	}
	drainServer(t, s)

	// No temp debris: every failed atomic write cleaned up after itself.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Logf("left behind: %s", e.Name())
	}
}

// TestStorageRecoversViaProbe: once the disk heals, the cooloff expires,
// the next job's probe succeeds, and persistence comes back — state
// "recovered", checkpoints flowing again, no lingering degraded labels.
func TestStorageRecoversViaProbe(t *testing.T) {
	dir := t.TempDir()
	// Exactly two faulted writes (one final checkpoint flush per job with
	// EveryN above the iteration count), then a healthy disk.
	fsys := errfs.New(nil, 0, errfs.Rule{Class: errfs.ENOSPC, After: 1, Every: 1, Count: 2})
	s := New(Config{
		Model:            testModel(),
		Workers:          1,
		QueueDepth:       8,
		CheckpointDir:    dir,
		CheckpointEveryN: 8,
		FS:               fsys,
		StorageThreshold: 2,
		StorageCooloff:   30 * time.Millisecond,
		StallWindow:      -1,
		Logf:             t.Logf,
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runOne := func() map[string]any {
		t.Helper()
		code, body := post(t, ts, `{"model":"mlp","scale":0.05,"iterations":2,"workers":1}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %v", code, body)
		}
		id := body["id"].(string)
		waitFor(t, id+" to settle", func() bool {
			_, v := get(t, ts, "/jobs/"+id)
			return v["state"] == stateDone
		})
		_, v := get(t, ts, "/jobs/"+id)
		return v
	}

	runOne() // fault 1
	runOne() // fault 2 -> degraded
	if got := s.storage.current(); got != storageDegraded {
		t.Fatalf("storage state %q after two faults", got)
	}
	time.Sleep(60 * time.Millisecond) // let the cooloff expire

	// The next job probes the (now healthy) disk, recovers persistence,
	// and runs fully checkpointed.
	v := runOne()
	res := v["result"].(map[string]any)
	if res["degraded_storage"] == true {
		t.Fatalf("post-recovery job still degraded: %v", v)
	}
	_, hz := get(t, ts, "/healthz")
	if hz["storage"] != storageRecovered {
		t.Fatalf("healthz storage = %v, want recovered", hz["storage"])
	}
	_, mets := get(t, ts, "/metrics")
	if mets["storage_recoveries"].(float64) != 1 {
		t.Errorf("storage_recoveries = %v, want 1", mets["storage_recoveries"])
	}
	drainServer(t, s)
}

// TestCheckpointGCOnRestart: restart recovery garbage-collects orphaned
// checkpoints past the age and count bounds (oldest first), then
// quarantines what is left if unreadable — the directory cannot grow
// without limit across crash loops.
func TestCheckpointGCOnRestart(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	write := func(name string, age time.Duration) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		mod := now.Add(-age)
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// Two stale by age; three fresh, one over the count cap.
	write("job-1.ckpt", 48*time.Hour)
	write("job-2.ckpt", 30*time.Hour)
	write("job-3.ckpt", 3*time.Hour)
	write("job-4.ckpt", 2*time.Hour)
	write("job-5.ckpt", 1*time.Hour)
	// Crash debris from a write that never finished.
	if err := os.WriteFile(filepath.Join(dir, "job-6.ckpt.tmp-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		Model:           testModel(),
		QueueDepth:      8,
		CheckpointDir:   dir,
		CheckpointGCMax: 2,
		StallWindow:     -1,
		Logf:            t.Logf,
	})
	if n := s.Start(); n != 0 {
		t.Fatalf("recovered %d jobs from junk checkpoints, want 0", n)
	}
	defer drainServer(t, s)

	if got := s.met[cCkptGCed].Load(); got != 3 {
		t.Errorf("checkpoints_gced = %d, want 3 (2 by age, 1 over cap)", got)
	}
	for _, name := range []string{"job-1.ckpt", "job-2.ckpt", "job-3.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived GC", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "job-6.ckpt.tmp-123")); !os.IsNotExist(err) {
		t.Error("temp debris survived the startup sweep")
	}
	// The two survivors are unreadable -> quarantined, not deleted.
	if got := s.met[cCkptQuarantined].Load(); got != 2 {
		t.Errorf("ckpt_quarantined = %d, want 2", got)
	}
	for _, name := range []string{"job-4.ckpt", "job-5.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
	}
}

// TestGovernorCountersSurfaceInMetrics: a search stopped by the memory
// governor settles done with Stopped "mem-budget" and its shed activity
// lands on /metrics.
func TestGovernorCountersSurfaceInMetrics(t *testing.T) {
	s := New(Config{Model: testModel(), QueueDepth: 4, Workers: 1, StallWindow: -1})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		res := tinyResult(opt.StopMemBudget)
		res.Governor = &opt.GovernorStatus{Budget: 1 << 20, EvictedStates: 7, Stage: 4}
		return res, nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := post(t, ts, `{"model":"mlp"}`)
	id := body["id"].(string)
	waitFor(t, "governed job to settle", func() bool {
		_, v := get(t, ts, "/jobs/"+id)
		return v["state"] == stateDone
	})
	_, v := get(t, ts, "/jobs/"+id)
	res := v["result"].(map[string]any)
	if res["stopped"] != "mem-budget" {
		t.Errorf("stopped = %v, want mem-budget", res["stopped"])
	}
	_, mets := get(t, ts, "/metrics")
	if mets["governor_stops"].(float64) != 1 {
		t.Errorf("governor_stops = %v, want 1", mets["governor_stops"])
	}
	if mets["governor_evicted_states"].(float64) != 7 {
		t.Errorf("governor_evicted_states = %v, want 7", mets["governor_evicted_states"])
	}
	drainServer(t, s)
}
