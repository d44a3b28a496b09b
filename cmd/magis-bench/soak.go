package main

// The soak target drives a live magis-serve instance through mixed,
// seeded traffic — hot cache hits, warm near-miss starts, cold searches,
// deadline-laden requests, and (optionally) a poisoned workload — and
// asserts the overload-protection invariants from the outside:
//
//   - every submitted job reaches a terminal state (no stuck jobs);
//   - the queue conserves work: admitted == completed + failed +
//     cancelled + shed, and the admission-cost ledger returns to zero;
//   - no unverified plan is passed off as verified, and every degraded
//     response is labeled with its fallback tier;
//   - the circuit breaker demonstrably isolates the poison workload while
//     healthy traffic keeps completing;
//   - SLO floors hold: cache-hit p99 latency and the degraded-response
//     rate stay under their bounds.
//
// scripts/soak_chaos.sh wraps this target with a server lifecycle,
// including a mid-flight SIGKILL and restart-recovery phase.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

type soakConfig struct {
	URL    string // server base URL
	Jobs   int    // traffic volume (submission attempts)
	Seed   int64  // traffic mix seed
	Poison string // poisoned model name ("" = skip the breaker phase)
}

const (
	// soakHealthy is the healthy model the traffic mix drives and the
	// breaker-isolation check submits.
	soakHealthy = "mlp"
	// settleTimeout bounds how long the soak and hostile targets wait for
	// jobs to settle and the server to go quiet.
	settleTimeout = 2 * time.Minute
	// soakHitP99 is the SLO floor for cache-hit p99 latency.
	soakHitP99 = 2 * time.Second
	// soakMaxDegraded is the SLO floor for the degraded fraction of
	// completed jobs.
	soakMaxDegraded = 0.5
)

type soakClient struct {
	base string
	hc   *http.Client
}

func (c *soakClient) postOptimize(body map[string]any) (int, map[string]any, http.Header, error) {
	b, _ := json.Marshal(body)
	resp, err := c.hc.Post(c.base+"/optimize", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m, resp.Header, nil
}

func (c *soakClient) getJSON(path string) (map[string]any, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return m, nil
}

func (c *soakClient) metric(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// soakViolations accumulates invariant failures; the run reports all of
// them, then fails once.
type soakViolations []string

func (v *soakViolations) addf(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// runSoak executes the soak; returns true when every invariant and SLO
// held.
func runSoak(ctx context.Context, cfg soakConfig) bool {
	c := &soakClient{base: strings.TrimRight(cfg.URL, "/"), hc: &http.Client{Timeout: 30 * time.Second}}
	var viol soakViolations

	if _, err := c.getJSON("/healthz"); err != nil {
		fmt.Printf("soak: server not reachable at %s: %v\n", cfg.URL, err)
		return false
	}
	fmt.Printf("soak: %d submissions against %s (seed %d, poison %q)\n",
		cfg.Jobs, cfg.URL, cfg.Seed, cfg.Poison)

	// Phase 1 — breaker isolation (deterministic preamble). Fail the
	// poisoned workload until its breaker opens, then prove the door is
	// shut for poison while a healthy job still completes.
	if cfg.Poison != "" {
		soakBreakerPhase(ctx, c, cfg, &viol)
	}

	// Phase 2 — seeded mixed traffic.
	ids := soakTraffic(ctx, c, cfg, &viol)

	// Phase 3 — settle and check invariants.
	soakSettle(ctx, c, ids, &viol)

	if len(viol) > 0 {
		fmt.Printf("soak: %d invariant violation(s):\n", len(viol))
		for _, v := range viol {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
		return false
	}
	fmt.Println("soak: all invariants and SLO floors held")
	return true
}

func soakBreakerPhase(ctx context.Context, c *soakClient, cfg soakConfig, viol *soakViolations) {
	fmt.Printf("soak: breaker phase — poisoning %s until the breaker opens\n", cfg.Poison)
	deadline := time.Now().Add(settleTimeout)
	tripped := false
	for time.Now().Before(deadline) && ctx.Err() == nil {
		code, body, _, err := c.postOptimize(map[string]any{"model": cfg.Poison, "budget": "1s"})
		if err != nil {
			viol.addf("breaker phase: submit error: %v", err)
			return
		}
		if code == http.StatusServiceUnavailable {
			tripped = true // breaker open: rejected at the door
			break
		}
		if code != http.StatusAccepted {
			viol.addf("breaker phase: poison submit got %d (%v)", code, body)
			return
		}
		// Wait for this poison job to settle so failures are consecutive.
		id, _ := body["id"].(string)
		soakAwaitTerminal(ctx, c, id, 30*time.Second)
		time.Sleep(50 * time.Millisecond)
	}
	if !tripped {
		viol.addf("breaker never opened for poisoned model %s", cfg.Poison)
		return
	}
	m, err := c.getJSON("/metrics")
	if err != nil || c.metric(m, "breaker_trips") < 1 {
		viol.addf("breaker_trips = %v after poison phase, want >= 1", m["breaker_trips"])
	}
	// Healthy traffic must flow while the poison workload is locked out.
	code, body, _, err := c.postOptimize(map[string]any{
		"model": soakHealthy, "scale": 0.01, "budget": "5s", "iterations": 10, "workers": 1,
	})
	if err != nil || code != http.StatusAccepted {
		viol.addf("healthy submit during open breaker: code %d err %v (%v)", code, err, body)
		return
	}
	id, _ := body["id"].(string)
	state := soakAwaitTerminal(ctx, c, id, 60*time.Second)
	if state != "done" {
		viol.addf("healthy job %s settled %q during open breaker, want done", id, state)
	} else {
		fmt.Println("soak: breaker open for poison; healthy job completed — isolation holds")
	}
}

// soakTraffic submits the seeded mix and returns the accepted job IDs.
func soakTraffic(ctx context.Context, c *soakClient, cfg soakConfig, viol *soakViolations) []string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ids []string
	rejected := 0
	for i := 0; i < cfg.Jobs && ctx.Err() == nil; i++ {
		req := map[string]any{"model": soakHealthy, "workers": 1}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // hot: identical cacheable request -> hits after the first
			req["scale"] = 0.01
			req["budget"] = "5s"
			req["iterations"] = 10
		case 4, 5: // warm: same graph, different budget
			req["scale"] = 0.01
			req["budget"] = fmt.Sprintf("%dms", 4000+rng.Intn(4)*500)
			req["iterations"] = 10
		case 6, 7: // cold-ish: different scale (different graph)
			req["scale"] = 0.01 + float64(rng.Intn(4))*0.005
			req["budget"] = "2s"
			req["iterations"] = 8
		case 8: // deadline-laden long search: degraded anytime result or shed
			req["scale"] = 0.02 + float64(rng.Intn(3))*0.01
			req["budget"] = "60s"
			req["deadline"] = fmt.Sprintf("%dms", 2000+rng.Intn(1500))
			req["iterations"] = 5000
		default: // verified request: the no-tamper invariant rides on these
			req["scale"] = 0.01
			req["budget"] = "5s"
			req["iterations"] = 10
			req["verify"] = true
		}
		code, body, hdr, err := c.postOptimize(req)
		if err != nil {
			viol.addf("traffic submit %d: %v", i, err)
			continue
		}
		switch code {
		case http.StatusAccepted:
			if id, ok := body["id"].(string); ok {
				ids = append(ids, id)
			} else {
				viol.addf("202 without job id: %v", body)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
			if hdr.Get("Retry-After") == "" && code == http.StatusTooManyRequests {
				viol.addf("429 without Retry-After header (submission %d)", i)
			}
			// Honor the hint loosely: brief backoff keeps the soak moving.
			time.Sleep(100 * time.Millisecond)
		case http.StatusUnprocessableEntity:
			rejected++ // infeasible deadline: a legitimate door rejection
		default:
			viol.addf("submission %d: unexpected status %d (%v)", i, code, body)
		}
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
	}
	fmt.Printf("soak: %d accepted, %d rejected at the door\n", len(ids), rejected)
	return ids
}

// soakAwaitTerminal polls one job to a terminal state; returns the state
// ("" on timeout).
func soakAwaitTerminal(ctx context.Context, c *soakClient, id string, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		v, err := c.getJSON("/jobs/" + id)
		if err == nil {
			switch v["state"] {
			case "done", "failed", "cancelled", "shed":
				return v["state"].(string)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return ""
}

func soakSettle(ctx context.Context, c *soakClient, ids []string, viol *soakViolations) {
	// Every job terminal: the no-stuck-job invariant.
	terminal := map[string]int{}
	for _, id := range ids {
		state := soakAwaitTerminal(ctx, c, id, settleTimeout)
		if state == "" {
			viol.addf("job %s never reached a terminal state", id)
			continue
		}
		terminal[state]++

		v, err := c.getJSON("/jobs/" + id)
		if err != nil {
			viol.addf("job %s: %v", id, err)
			continue
		}
		// Label invariants: shed jobs say why; degraded results carry a
		// tier; verified claims only on verified paths.
		if state == "shed" {
			if msg, _ := v["error"].(string); !strings.Contains(msg, "shed") {
				viol.addf("job %s shed without a shed label: %q", id, msg)
			}
		}
		if res, ok := v["result"].(map[string]any); ok {
			if res["degraded"] == true {
				tier, _ := res["degraded_tier"].(string)
				if tier != "best-so-far" && tier != "baseline" {
					viol.addf("job %s degraded with unknown tier %q", id, tier)
				}
			}
		}
	}
	fmt.Printf("soak: terminal states: %v\n", terminal)

	// Wait for the server to go quiet, then audit the books.
	quietBy := time.Now().Add(settleTimeout)
	var hz map[string]any
	for time.Now().Before(quietBy) && ctx.Err() == nil {
		var err error
		hz, err = c.getJSON("/healthz")
		if err == nil && c.metric(hz, "queue_depth") == 0 && c.metric(hz, "in_flight") == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if hz == nil || c.metric(hz, "queue_depth") != 0 || c.metric(hz, "in_flight") != 0 {
		viol.addf("server never went quiet: %v", hz)
		return
	}
	if held := c.metric(hz, "cost_in_use_ms"); held != 0 {
		viol.addf("admission cost leaked: cost_in_use_ms=%v after quiesce", held)
	}

	m, err := c.getJSON("/metrics")
	if err != nil {
		viol.addf("metrics: %v", err)
		return
	}
	admitted := c.metric(m, "admitted")
	settled := c.metric(m, "completed") + c.metric(m, "failed") + c.metric(m, "cancelled") +
		c.metric(m, "shed_expired") + c.metric(m, "shed_evicted")
	if admitted != settled {
		viol.addf("queue conservation violated: admitted %v != settled %v", admitted, settled)
	}

	// SLO floors.
	if hl, ok := m["cache_hit_latency_sec"].(map[string]any); ok {
		if cnt, _ := hl["count"].(float64); cnt > 0 {
			if p99, _ := hl["p99"].(float64); p99 > soakHitP99.Seconds() {
				viol.addf("SLO: cache-hit p99 %.3fs exceeds floor %v", p99, soakHitP99)
			}
		}
	}
	if done := c.metric(m, "completed"); done > 0 {
		if rate := c.metric(m, "degraded") / done; rate > soakMaxDegraded {
			viol.addf("SLO: degraded rate %.2f exceeds floor %.2f", rate, soakMaxDegraded)
		}
	}
	fmt.Printf("soak: admitted=%v completed=%v failed=%v cancelled=%v shed=%v+%v degraded=%v breaker_trips=%v\n",
		admitted, m["completed"], m["failed"], m["cancelled"],
		m["shed_expired"], m["shed_evicted"], m["degraded"], m["breaker_trips"])
}
