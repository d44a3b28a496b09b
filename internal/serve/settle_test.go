package serve

// Tests for the one settle path and the one refusal path: every way a job
// becomes terminal moves exactly one terminal counter and gives back its
// breaker probe slot and cost hold, a request that loses the race with
// Drain is refused rather than counted, and a settled job keeps its
// result view but not its request payload.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"magis/internal/ingest"
	"magis/internal/opt"
)

// terminalCounters are the buckets of the conservation invariant.
var terminalCounters = []counter{cCompleted, cFailed, cCancelled, cShedExpired, cShedEvicted}

func terminalSnapshot(s *Server) []int64 {
	out := make([]int64, len(terminalCounters))
	for i, c := range terminalCounters {
		out[i] = s.met[c].Load()
	}
	return out
}

func jobByID(s *Server, id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// probeReleased reports that key holds no half-open probe slot.
func probeReleased(s *Server, key string) bool {
	s.brk.mu.Lock()
	defer s.brk.mu.Unlock()
	e := s.brk.states[key]
	return e == nil || !e.probing
}

// blocking is a search that runs until release closes or its context ends.
func blocking(release <-chan struct{}) searchFn {
	return func(ctx context.Context, j *job) (*opt.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return tinyResult(opt.StopConverged), nil
	}
}

// stalling writes a snapshot and then makes no progress until cancelled;
// a resumed run converges at once unless stallAgain is set.
func stalling(s *Server, stallAgain bool) searchFn {
	return func(ctx context.Context, j *job) (*opt.Result, error) {
		if j.resumeFrom() != "" && !stallAgain {
			return tinyResult(opt.StopConverged), nil
		}
		if err := os.WriteFile(s.checkpointPath(j.id), []byte("snapshot"), 0o644); err != nil {
			return nil, err
		}
		<-ctx.Done()
		return tinyResult(opt.StopCancelled), nil
	}
}

// TestSettlePaths drives one job down every settle path, with the job
// admitted as its workload's half-open breaker probe. Each path must move
// exactly one terminal counter by one, release the probe slot whatever
// the verdict, and leave the books balanced.
func TestSettlePaths(t *testing.T) {
	stallCfg := func(t *testing.T) Config {
		return Config{CheckpointDir: t.TempDir(), StallWindow: 50 * time.Millisecond, StallPoll: 10 * time.Millisecond}
	}
	block := func(_ *Server, release <-chan struct{}) searchFn { return blocking(release) }
	// blocker occupies the single worker on a workload other than the
	// probed one, so the job under test waits in the queue.
	blocker := func(t *testing.T, s *Server, ts *httptest.Server) {
		if code, resp := post(t, ts, `{"model":"mlp","scale":0.5}`); code != http.StatusAccepted {
			t.Fatalf("blocker: %d %v", code, resp)
		}
		waitFor(t, "blocker to run", func() bool { return s.inFlight.Load() == 1 })
	}
	cases := []struct {
		name   string
		cfg    func(t *testing.T) Config
		search func(s *Server, release <-chan struct{}) searchFn
		noRun  bool // no workers: the job stays queued
		setup  func(t *testing.T, s *Server, ts *httptest.Server)
		body   string
		drive  func(t *testing.T, s *Server, ts *httptest.Server, j *job)
		state  string
		want   counter
		also   []counter // non-terminal counters the path also moves, once per listing
	}{
		{name: "done", body: `{"model":"mlp"}`, state: stateDone, want: cCompleted},
		{name: "degraded",
			search: func(*Server, <-chan struct{}) searchFn {
				return func(ctx context.Context, j *job) (*opt.Result, error) {
					<-ctx.Done()
					return tinyResult(opt.StopDeadline), nil
				}
			},
			body: `{"model":"mlp","budget":"10s","deadline":"300ms"}`, state: stateDone, want: cCompleted, also: []counter{cDegraded}},
		{name: "failed",
			search: func(*Server, <-chan struct{}) searchFn {
				return func(context.Context, *job) (*opt.Result, error) { return nil, errors.New("injected failure") }
			},
			body: `{"model":"mlp"}`, state: stateFailed, want: cFailed},
		{name: "deadline-error",
			search: func(*Server, <-chan struct{}) searchFn {
				return func(ctx context.Context, j *job) (*opt.Result, error) {
					<-ctx.Done()
					return nil, ctx.Err()
				}
			},
			body: `{"model":"mlp","budget":"10s","deadline":"200ms"}`, state: stateFailed, want: cFailed},
		{name: "stall-requeue-done", cfg: stallCfg,
			search: func(s *Server, _ <-chan struct{}) searchFn { return stalling(s, false) },
			body:   `{"model":"mlp"}`, state: stateDone, want: cCompleted, also: []counter{cStalled, cResumed}},
		{name: "stall-cancelled", cfg: stallCfg,
			search: func(s *Server, _ <-chan struct{}) searchFn { return stalling(s, true) },
			body:   `{"model":"mlp"}`, state: stateCancelled, want: cCancelled, also: []counter{cStalled, cStalled, cResumed}},
		{name: "drain-queued", noRun: true, body: `{"model":"mlp"}`,
			drive: func(t *testing.T, s *Server, _ *httptest.Server, _ *job) { drainServer(t, s) },
			state: stateCancelled, want: cCancelled},
		{name: "drain-running", search: block,
			body: `{"model":"mlp"}`,
			drive: func(t *testing.T, s *Server, ts *httptest.Server, j *job) {
				waitFor(t, "job to run", func() bool { _, v := get(t, ts, "/jobs/"+j.id); return v["state"] == stateRunning })
				drainServer(t, s)
			},
			state: stateCancelled, want: cCancelled},
		{name: "shed-expired",
			cfg:    func(*testing.T) Config { return Config{StallWindow: time.Hour, StallPoll: 10 * time.Millisecond} },
			search: block,
			setup:  blocker, body: `{"model":"mlp","budget":"100ms","deadline":"400ms"}`,
			state: stateShed, want: cShedExpired},
		{name: "shed-evicted",
			cfg:    func(*testing.T) Config { return Config{QueueDepth: 1} },
			search: block,
			setup:  blocker, body: `{"model":"mlp"}`,
			drive: func(t *testing.T, s *Server, ts *httptest.Server, _ *job) {
				if code, resp := post(t, ts, `{"model":"mlp","scale":0.5,"deadline":"1h"}`); code != http.StatusAccepted {
					t.Fatalf("urgent job: %d %v", code, resp)
				}
			},
			state: stateShed, want: cShedEvicted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{StallWindow: -1}
			if tc.cfg != nil {
				cfg = tc.cfg(t)
			}
			cfg.Model, cfg.Workers = testModel(), 1
			s := New(cfg)
			release := make(chan struct{})
			s.runSearch = func(context.Context, *job) (*opt.Result, error) { return tinyResult(opt.StopConverged), nil }
			if tc.search != nil {
				s.runSearch = tc.search(s, release)
			}
			if !tc.noRun {
				s.Start()
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if tc.setup != nil {
				tc.setup(t, s, ts)
			}

			// Open the probed workload's breaker with its cooloff over, so
			// the job under test is admitted as the half-open probe.
			key := breakerKey("mlp", 1, "mem")
			s.brk.mu.Lock()
			s.brk.states[key] = &breakerEntry{openUntil: time.Now().Add(-time.Millisecond)}
			s.brk.mu.Unlock()

			before := terminalSnapshot(s)
			alsoWant := map[counter]int64{}
			for _, c := range tc.also {
				alsoWant[c]++
			}
			for c := range alsoWant {
				alsoWant[c] += s.met[c].Load()
			}
			code, resp := post(t, ts, tc.body)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %v", code, resp)
			}
			j := jobByID(s, resp["id"].(string))
			if !j.probe {
				t.Fatal("job under test was not admitted as the breaker probe")
			}
			if tc.drive != nil {
				tc.drive(t, s, ts, j)
			}
			// settle bumps the counter and hands the breaker its verdict
			// after the state is visible, so wait for the slot too.
			waitFor(t, "job to settle "+tc.state, func() bool {
				_, v := get(t, ts, "/jobs/"+j.id)
				return v["state"] == tc.state && probeReleased(s, key)
			})

			after := terminalSnapshot(s)
			for i, c := range terminalCounters {
				want := before[i]
				if c == tc.want {
					want++
				}
				if after[i] != want {
					t.Errorf("%s moved %d -> %d, want %d", counterNames[c], before[i], after[i], want)
				}
			}
			for c, want := range alsoWant {
				if got := s.met[c].Load(); got != want {
					t.Errorf("%s = %d, want %d", counterNames[c], got, want)
				}
			}

			close(release)
			drainServer(t, s)
			assertConservation(t, s, ts)
		})
	}
}

// TestDrainDuringAdmission: Drain lands after a request's job has been
// registered and priced but before it is queued. The request must be
// refused 503 draining and counted rejected_draining — never cancelled,
// never a 429 queue-full — so conservation holds. Deterministic: the
// admission is driven gate by gate around the Drain call.
func TestDrainDuringAdmission(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := httptest.NewRecorder()
	a := &admission{w: rec, req: OptimizeRequest{Model: "mlp"}, client: anonClient}
	var err error
	if a.budget, a.wait, err = a.req.normalize(s.cfg); err != nil {
		t.Fatal(err)
	}
	if rf := s.gatePrice(a); rf != nil {
		t.Fatalf("pricing refused: %+v", rf)
	}
	drainServer(t, s)
	s.admit(a, (*Server).gateDeadline, (*Server).gateCost, (*Server).gateQueue)

	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("late admission: %d %v, want 503 draining", rec.Code, body)
	}
	m := metricsOf(t, ts)
	for key, want := range map[string]float64{"rejected_draining": 1, "rejected_full": 0, "admitted": 0, "cancelled": 0} {
		if m[key] != want {
			t.Errorf("%s = %v, want %v", key, m[key], want)
		}
	}
	if jobByID(s, a.j.id) != nil {
		t.Error("refused job is still registered")
	}
	assertConservation(t, s, ts)
}

// TestSettleReleasesPayload: a settled graph-document job holds neither
// its request document nor its ingested graph, and its /jobs/{id} view
// does not depend on them.
func TestSettleReleasesPayload(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	doc := graphDoc(t, "mlp")
	code, resp := post(t, ts, `{"graph":`+doc+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	waitFor(t, "job to settle", func() bool {
		_, v := get(t, ts, "/jobs/"+id)
		return v["state"] == stateDone
	})
	j := jobByID(s, id)
	j.mu.Lock()
	held := j.req.Graph != nil || j.g != nil
	j.mu.Unlock()
	if held {
		t.Fatal("settled job still holds its request payload")
	}

	view := func() []byte {
		t.Helper()
		r, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	released := view()
	g, _, err := ingest.Decode(strings.NewReader(doc), ingest.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.req.Graph, j.g = json.RawMessage(doc), g
	j.mu.Unlock()
	if restored := view(); !bytes.Equal(released, restored) {
		t.Errorf("job view depends on the released payload:\n%s\n%s", released, restored)
	}
}
