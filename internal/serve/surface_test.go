package serve

// Pins of the service's JSON surface: the /metrics and /healthz key sets
// and the status, reason and Retry-After of every admission refusal.
// bench/serve.go, the magis-bench soak and hostile harnesses and the chaos
// scripts read these, so a refactor of the service must leave them as
// they are.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"magis/internal/ingest"
	"magis/internal/opt"
)

var (
	healthzKeys = []string{
		"breaker_open", "cost_budget_ms", "cost_in_use_ms", "in_flight", "jobs",
		"queue_capacity", "queue_depth", "status", "storage",
	}
	metricsKeys = []string{
		"admitted", "admitted_cold", "admitted_hit", "admitted_warm",
		"breaker_open", "breaker_trips", "cancelled", "checkpoints_gced",
		"ckpt_quarantined", "completed", "cost_budget_ms", "cost_in_use_ms",
		"degraded", "expansions", "failed", "governor_evicted_states",
		"governor_stops", "in_flight", "queue_depth", "rejected_bomb",
		"rejected_breaker", "rejected_client_queue", "rejected_client_rate",
		"rejected_client_share", "rejected_cost", "rejected_deadline",
		"rejected_draining", "rejected_full", "rejected_ingest",
		"rejected_invalid", "rejected_too_large", "resumed", "shed_evicted",
		"shed_expired", "stalled", "storage_degraded_jobs", "storage_faults",
		"storage_recoveries", "storage_state",
	}
	metricsCacheKeys = []string{
		"cache", "cache_hit_latency_sec", "cache_hits", "cache_miss_latency_sec",
		"cache_misses", "cache_warm_starts", "flight_shared",
	}
	metricsClientKeys = []string{"clients"}
)

func keysOf(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedUnion(sets ...[]string) []string {
	var out []string
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.Strings(out)
	return out
}

// TestMetricsAndHealthzKeys pins the exact key sets of /metrics and
// /healthz with the plan cache on and off and client fairness on and off.
func TestMetricsAndHealthzKeys(t *testing.T) {
	for _, cache := range []bool{false, true} {
		for _, fair := range []bool{false, true} {
			t.Run(fmt.Sprintf("cache=%v/fairness=%v", cache, fair), func(t *testing.T) {
				cfg := Config{Model: testModel(), StallWindow: -1}
				if cache {
					cfg = cacheServerConfig(t, 1)
				}
				if fair {
					cfg.ClientRate, cfg.ClientShare, cfg.ClientQueue = 100, 0.5, 4
				}
				s := New(cfg)
				s.Start()
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				defer drainServer(t, s)

				_, hz := get(t, ts, "/healthz")
				if got := keysOf(hz); !reflect.DeepEqual(got, healthzKeys) {
					t.Errorf("/healthz keys\n got %v\nwant %v", got, healthzKeys)
				}
				want := metricsKeys
				if cache {
					want = sortedUnion(want, metricsCacheKeys)
				}
				if fair {
					want = sortedUnion(want, metricsClientKeys)
				}
				if got := keysOf(metricsOf(t, ts)); !reflect.DeepEqual(got, want) {
					t.Errorf("/metrics keys\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestRefusalSurface pins every admission refusal a request can meet:
// its HTTP status, its machine-readable reason, whether it carries a
// Retry-After hint, and the /metrics counter it moves. Each case first
// submits the jobs in before (all accepted) and waits for ready.
func TestRefusalSurface(t *testing.T) {
	running := func(m map[string]any) bool { return m["in_flight"] == float64(1) }
	cases := []struct {
		name    string
		cfg     Config
		before  []string
		ready   func(map[string]any) bool
		drain   bool
		client  string
		body    string
		code    int
		reason  string
		retry   bool
		counter string
	}{
		{name: "draining", drain: true, body: `{"model":"mlp"}`,
			code: 503, reason: "draining", counter: "rejected_draining"},
		{name: "too-large", cfg: Config{MaxBody: 64}, body: `{"model":"mlp","budget":"` + strings.Repeat("x", 128) + `"}`,
			code: 413, reason: "too-large", counter: "rejected_too_large"},
		{name: "unknown-field", body: `{"model":"mlp","bogus":1}`,
			code: 400, reason: "unknown-field", counter: "rejected_invalid"},
		{name: "syntax", body: `{"model":`,
			code: 400, reason: "syntax", counter: "rejected_invalid"},
		{name: "client", client: "a b", body: `{"model":"mlp"}`,
			code: 400, reason: "client", counter: "rejected_invalid"},
		{name: "invalid", body: `{"model":"nope"}`,
			code: 400, reason: "invalid", counter: "rejected_invalid"},
		{name: "client-rate", cfg: Config{ClientRate: 0.001, ClientBurst: 1}, before: []string{`{"model":"mlp"}`}, ready: running,
			body: `{"model":"mlp"}`, code: 429, reason: "client-rate", retry: true, counter: "rejected_client_rate"},
		{name: "ingest", body: `{"graph":{"magic":"evil","version":1,"nodes":[]}}`,
			code: 400, reason: "header", counter: "rejected_ingest"},
		{name: "search-bomb", cfg: Config{Ingest: ingest.Limits{MaxExpansionCost: time.Nanosecond}}, body: `{"graph":` + graphDoc(t, "mlp") + `}`,
			code: 422, reason: "search-bomb", counter: "rejected_bomb"},
		{name: "breaker", cfg: Config{BreakerThreshold: 1, BreakerCooloff: time.Hour}, before: []string{`{"model":"vit"}`},
			ready: func(m map[string]any) bool { return m["breaker_trips"] == float64(1) },
			body:  `{"model":"vit"}`, code: 503, reason: "breaker", retry: true, counter: "rejected_breaker"},
		{name: "deadline", body: `{"model":"mlp","deadline":"1ms"}`,
			code: 422, reason: "deadline", counter: "rejected_deadline"},
		{name: "client-share", cfg: Config{DefaultBudget: time.Second, AdmitBudget: time.Hour, ClientShare: 0.00034},
			before: []string{`{"model":"mlp"}`}, ready: running,
			body: `{"model":"mlp"}`, code: 429, reason: "client-share", retry: true, counter: "rejected_client_share"},
		{name: "budget", cfg: Config{AdmitBudget: 15 * time.Second}, before: []string{`{"model":"mlp"}`}, ready: running,
			body: `{"model":"mlp"}`, code: 429, reason: "budget", retry: true, counter: "rejected_cost"},
		{name: "client-queue", cfg: Config{AdmitBudget: time.Hour, ClientQueue: 1},
			before: []string{`{"model":"mlp"}`, `{"model":"mlp"}`}, ready: running,
			body: `{"model":"mlp"}`, code: 429, reason: "client-queue", retry: true, counter: "rejected_client_queue"},
		{name: "queue-full", cfg: Config{AdmitBudget: time.Hour, QueueDepth: 1},
			before: []string{`{"model":"mlp"}`, `{"model":"mlp"}`}, ready: running,
			body: `{"model":"mlp"}`, code: 429, reason: "queue-full", retry: true, counter: "rejected_full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Model, cfg.Workers = testModel(), 1
			if cfg.StallWindow == 0 {
				cfg.StallWindow = -1
			}
			release := make(chan struct{})
			s := New(cfg)
			s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
				if strings.EqualFold(j.req.Model, "vit") {
					return nil, errors.New("injected failure: poison graph")
				}
				select {
				case <-release:
				case <-ctx.Done():
				}
				return tinyResult(opt.StopConverged), nil
			}
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer drainServer(t, s)
			defer close(release)

			for i, body := range tc.before {
				if code, resp := postAs(t, ts, "c", body); code != http.StatusAccepted {
					t.Fatalf("before[%d]: status %d (%v), want 202", i, code, resp)
				}
				if i == 0 && tc.ready != nil {
					waitFor(t, "server ready", func() bool { return tc.ready(metricsOf(t, ts)) })
				}
			}
			if tc.drain {
				drainServer(t, s)
			}
			client := tc.client
			if client == "" {
				client = "c"
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Magis-Client", client)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || body["reason"] != tc.reason {
				t.Fatalf("status %d reason %v (%v), want %d %s", resp.StatusCode, body["reason"], body, tc.code, tc.reason)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != tc.retry {
				t.Errorf("Retry-After present = %v, want %v", got, tc.retry)
			}
			if keys := keysOf(body); !reflect.DeepEqual(keys, []string{"error", "reason"}) {
				t.Errorf("refusal body keys %v, want [error reason]", keys)
			}
			if m := metricsOf(t, ts); m[tc.counter] != float64(1) {
				t.Errorf("%s = %v, want 1", tc.counter, m[tc.counter])
			}
		})
	}

	// A method other than POST is not an admission refusal: 405, no reason.
	s := New(Config{Model: testModel(), StallWindow: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/optimize")
	if code != http.StatusMethodNotAllowed || body["reason"] != nil {
		t.Errorf("GET /optimize: status %d body %v, want 405 without a reason", code, body)
	}
}
