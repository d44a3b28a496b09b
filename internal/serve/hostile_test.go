package serve

// Hostile-traffic tests: strict request decoding, bounded bodies,
// untrusted graph ingestion at the /optimize boundary, and the per-client
// fairness gates (rate, fair-share cost, queue occupancy). The headline
// acceptance pin lives in TestGraphSubmissionMatchesNamedModel: a
// well-formed graph pushed through the whole ingestion pipeline must
// produce a plan bit-identical to the same workload requested by name.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
)

// graphDoc serializes a workload's graph as the graphio file envelope —
// the exact bytes a client would put in the request's "graph" field.
func graphDoc(t *testing.T, name string) string {
	t.Helper()
	w, err := models.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := graphio.Save(&buf, w.G, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postAs submits a body with an X-Magis-Client header.
func postAs(t *testing.T, ts *httptest.Server, client, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Magis-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

// TestStrictRequestDecode pins the request-body contract: unknown fields
// are named in a 400, syntax errors are 400, and every rejection carries
// a machine-readable reason.
func TestStrictRequestDecode(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		reason string
	}{
		{"unknown field", `{"model":"mlp","bogus":1}`, "unknown-field"},
		{"syntax error", `{"model":`, "syntax"},
		{"trailing garbage is tolerated by stream decode", `{"model":"nope"}`, "invalid"},
		{"graph and model both", `{"model":"mlp","graph":{"magic":"magis-graph"}}`, "invalid"},
		{"scale on graph job", fmt.Sprintf(`{"graph":%s,"scale":0.5}`, graphDoc(t, "mlp")), "invalid"},
		{"hostile client identity", `{"model":"mlp","client":"a b"}`, "client"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d (%v), want 400", code, body)
			}
			if body["reason"] != tc.reason {
				t.Fatalf("reason %q (%v), want %q", body["reason"], body, tc.reason)
			}
		})
	}

	// The unknown-field error must name the field, so a typo'd request is
	// diagnosable from the response alone.
	_, body := post(t, ts, `{"model":"mlp","bogus":1}`)
	if !strings.Contains(fmt.Sprint(body["error"]), "bogus") {
		t.Fatalf("unknown-field error does not name the field: %v", body["error"])
	}
}

// TestMaxBodyRejectsOversized pins the 413 path: a body past MaxBody is
// refused before the decoder allocates, with reason "too-large".
func TestMaxBodyRejectsOversized(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1, MaxBody: 512})
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"model":"mlp","budget":"` + strings.Repeat("x", 1024) + `"}`
	code, body := post(t, ts, big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%v), want 413", code, body)
	}
	if body["reason"] != "too-large" {
		t.Fatalf("reason %q, want too-large", body["reason"])
	}
	if s.met[cRejectedTooLarge].Load() != 1 {
		t.Fatalf("rejected_too_large = %d, want 1", s.met[cRejectedTooLarge].Load())
	}
}

// TestGraphSubmissionMatchesNamedModel is the fidelity acceptance pin: a
// well-formed graph document pushed through ingestion (strict decode,
// limits, preflight) must settle with a plan bit-identical to the same
// workload requested by name. Deterministic search settings (one worker,
// fixed iteration cap) make the comparison exact.
func TestGraphSubmissionMatchesNamedModel(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1, Workers: 1})
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(body string) map[string]any {
		t.Helper()
		code, v := post(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("status %d (%v), want 202", code, v)
		}
		id := v["id"].(string)
		var last map[string]any
		waitFor(t, "job "+id, func() bool {
			_, last = get(t, ts, "/jobs/"+id)
			return last["state"] == stateDone || last["state"] == stateFailed
		})
		if last["state"] != stateDone {
			t.Fatalf("job settled %v: %v", last["state"], last["error"])
		}
		res, _ := last["result"].(map[string]any)
		if res == nil {
			t.Fatalf("job %s has no result: %v", id, last)
		}
		return res
	}

	settings := `"mode":"mem","limit":0.10,"iterations":30,"workers":1,"budget":"30s"`
	named := run(fmt.Sprintf(`{"model":"mlp",%s}`, settings))
	direct := run(fmt.Sprintf(`{"graph":%s,%s}`, graphDoc(t, "mlp"), settings))

	for _, k := range []string{"peak_mem_bytes", "latency_sec", "iterations"} {
		if named[k] != direct[k] {
			t.Fatalf("%s diverged: named %v, graph %v", k, named[k], direct[k])
		}
	}
}

// TestGraphSubmissionRejectsHostileDocuments drives hostile graph bodies
// through /optimize and asserts each is refused with the ingest-assigned
// status and reason — never a 5xx, never an admitted job.
func TestGraphSubmissionRejectsHostileDocuments(t *testing.T) {
	s := New(Config{Model: testModel(), StallWindow: -1})
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		graph  string
		code   int
		reason string
	}{
		{"not an object", `[1,2,3]`, 400, "syntax"},
		{"wrong magic", `{"magic":"evil","version":1,"nodes":[]}`, 400, "header"},
		{"unknown envelope field", `{"magic":"magis-graph","version":1,"nodes":[],"exploit":1}`, 400, "unknown-field"},
		{"duplicate id", `{"magic":"magis-graph","version":1,"nodes":[
			{"id":1,"op":{"kind":"Input","out":[2],"dtype":0}},
			{"id":1,"op":{"kind":"Input","out":[2],"dtype":0}}]}`, 400, "duplicate-id"},
		{"dangling input", `{"magic":"magis-graph","version":1,"nodes":[
			{"id":1,"op":{"kind":"ReLU","ins":[[2]],"out":[2],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[99]}]}`, 400, "dangling-input"},
		{"unknown dtype", `{"magic":"magis-graph","version":1,"nodes":[
			{"id":1,"op":{"kind":"Input","out":[2],"dtype":99}}]}`, 400, "dtype"},
		{"shape overflow", `{"magic":"magis-graph","version":1,"nodes":[
			{"id":1,"op":{"kind":"Input","out":[2147483647,2147483647,2147483647],"dtype":0}}]}`, 400, "bad-shape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, fmt.Sprintf(`{"graph":%s}`, tc.graph))
			if code != tc.code {
				t.Fatalf("status %d (%v), want %d", code, body, tc.code)
			}
			if body["reason"] != tc.reason {
				t.Fatalf("reason %q (%v), want %q", body["reason"], body["error"], tc.reason)
			}
		})
	}
	if got := s.met[cAdmitted].Load(); got != 0 {
		t.Fatalf("hostile documents admitted %d jobs, want 0", got)
	}
}

// TestGraphSubmissionRejectsSearchBombs pins the preflight: under a tiny
// expansion-cost ceiling every real graph is a "search bomb" and rejects
// with 422 + reason search-bomb before any cost is held.
func TestGraphSubmissionRejectsSearchBombs(t *testing.T) {
	s := New(Config{
		Model:       testModel(),
		StallWindow: -1,
		Ingest:      ingest.Limits{MaxExpansionCost: time.Nanosecond},
	})
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post(t, ts, fmt.Sprintf(`{"graph":%s}`, graphDoc(t, "mlp")))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%v), want 422", code, body)
	}
	if body["reason"] != string(ingest.ReasonSearchBomb) {
		t.Fatalf("reason %q, want %s", body["reason"], ingest.ReasonSearchBomb)
	}
	if s.met[cRejectedBomb].Load() != 1 {
		t.Fatalf("rejected_bomb = %d, want 1", s.met[cRejectedBomb].Load())
	}
	if held := s.costInUse.Load(); held != 0 {
		t.Fatalf("rejected bomb left %d cost units held", held)
	}
}

// TestClientRateLimit pins the token bucket: a client that exhausts its
// burst collects 429 "client-rate" with a Retry-After hint while a
// different client identity sails through.
func TestClientRateLimit(t *testing.T) {
	s := New(Config{
		Model: testModel(), StallWindow: -1, QueueDepth: 64,
		ClientRate: 0.001, ClientBurst: 2,
	})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if code, body := postAs(t, ts, "bully", `{"model":"mlp"}`); code != http.StatusAccepted {
			t.Fatalf("bully request %d: status %d (%v), want 202", i, code, body)
		}
	}
	code, body := postAs(t, ts, "bully", `{"model":"mlp"}`)
	if code != http.StatusTooManyRequests || body["reason"] != "client-rate" {
		t.Fatalf("over-rate bully: status %d reason %q (%v), want 429 client-rate", code, body["reason"], body)
	}
	if code, body := postAs(t, ts, "good", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatalf("good client blocked by bully's rate: status %d (%v)", code, body)
	}
	if s.met[cRejectedClientRate].Load() == 0 {
		t.Fatal("rejected_client_rate not counted")
	}
}

// TestClientShareIsolation pins the fair-share ledger: one client may not
// hold more than its configured slice of the admission budget while other
// clients still fit comfortably. The idle-client single-job exception is
// pinned too: the client's first job always lands.
func TestClientShareIsolation(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Model: testModel(), StallWindow: -1, Workers: 1, QueueDepth: 16,
		DefaultBudget: time.Second,
		AdmitBudget:   time.Hour,  // global budget never binds here
		ClientShare:   0.00034,    // ~1.2s of the hour: one ~1.1s job fits, two do not
	})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	defer func() { close(release); drainServer(t, s) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := postAs(t, ts, "bully", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatalf("bully's first job: status %d (%v), want 202 (idle exception)", code, body)
	}
	code, body := postAs(t, ts, "bully", `{"model":"mlp"}`)
	if code != http.StatusTooManyRequests || body["reason"] != "client-share" {
		t.Fatalf("bully's second job: status %d reason %q (%v), want 429 client-share", code, body["reason"], body)
	}
	if code, body := postAs(t, ts, "good", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatalf("good client blocked by bully's share: status %d (%v)", code, body)
	}

	// The rejected hold must have been rolled back: global cost in use is
	// exactly the two admitted jobs.
	if s.met[cRejectedClientShare].Load() != 1 {
		t.Fatalf("rejected_client_share = %d, want 1", s.met[cRejectedClientShare].Load())
	}
}

// TestClientQueueCap pins per-client queue occupancy: with ClientQueue=1,
// a client's second queued job is refused ("client-queue") without
// evicting anyone, while another client still gets a slot.
func TestClientQueueCap(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Config{
		Model: testModel(), StallWindow: -1, Workers: 1, QueueDepth: 8,
		AdmitBudget: time.Hour, ClientQueue: 1,
	})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	defer func() { close(release); drainServer(t, s) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job 1 occupies the worker, job 2 takes bully's one queue slot.
	if code, _ := postAs(t, ts, "bully", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatal("bully job 1 not admitted")
	}
	<-started
	if code, _ := postAs(t, ts, "bully", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatal("bully job 2 not admitted")
	}
	code, body := postAs(t, ts, "bully", `{"model":"mlp"}`)
	if code != http.StatusTooManyRequests || body["reason"] != "client-queue" {
		t.Fatalf("bully job 3: status %d reason %q (%v), want 429 client-queue", code, body["reason"], body)
	}
	if code, body := postAs(t, ts, "good", `{"model":"mlp"}`); code != http.StatusAccepted {
		t.Fatalf("good client blocked by bully's queue cap: status %d (%v)", code, body)
	}
	if s.met[cShedEvicted].Load() != 0 {
		t.Fatalf("client-queue rejection evicted %d victims, want 0", s.met[cShedEvicted].Load())
	}
}

// TestFloodFairness floods the server from one client while a well-behaved
// client trickles requests, asserting — under the race detector in CI —
// that the good client's success rate holds at 100% and nobody ever sees
// a 5xx. This is the in-process twin of the magis-bench hostile phase.
func TestFloodFairness(t *testing.T) {
	s := New(Config{
		Model: testModel(), StallWindow: -1, Workers: 2, QueueDepth: 64,
		AdmitBudget: time.Hour,
		ClientRate:  5, ClientBurst: 3, ClientQueue: 4,
	})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var server5xx, bullyOK atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			code, _ := postAs(t, ts, "bully", `{"model":"mlp"}`)
			if code >= 500 {
				server5xx.Add(1)
			}
			if code == http.StatusAccepted {
				bullyOK.Add(1)
			}
		}
	}()

	goodOK := 0
	for i := 0; i < 10; i++ {
		// Paced inside the good client's own rate: 5 rps, burst 3.
		time.Sleep(250 * time.Millisecond)
		code, body := postAs(t, ts, "good", `{"model":"mlp"}`)
		if code == http.StatusAccepted {
			goodOK++
		} else if code >= 500 {
			t.Errorf("good client got 5xx %d: %v", code, body)
		}
	}
	wg.Wait()

	if server5xx.Load() != 0 {
		t.Fatalf("flood produced %d server errors", server5xx.Load())
	}
	if goodOK != 10 {
		t.Fatalf("good client succeeded %d/10 during the flood", goodOK)
	}
	// The bully was throttled, not starved: some admitted, many rejected.
	if n := bullyOK.Load(); n == 0 || n >= 80 {
		t.Fatalf("bully admitted %d/80, want throttled middle ground", n)
	}

	// Per-client accounting made it to /metrics.
	_, m := get(t, ts, "/metrics")
	clients, _ := m["clients"].(map[string]any)
	if clients["bully"] == nil || clients["good"] == nil {
		t.Fatalf("per-client metrics missing: %v", m["clients"])
	}
}
