package main

// The hostile target drives a live magis-serve instance with adversarial
// traffic — malformed bodies, hostile graph documents, a slow-loris
// connection, and a single-tenant flood — and asserts the
// hostile-traffic invariants from the outside:
//
//   - every corpus request settles as a structured 4xx (an "error" plus a
//     machine-readable "reason"), never a 5xx, never an admitted job;
//   - a slow-loris connection is evicted by the server's socket
//     deadlines instead of holding a connection slot forever;
//   - under a single-tenant flood, a well-behaved client's success rate
//     and response latency hold (fair-share isolation), and the bully is
//     throttled rather than served or crashed;
//   - afterwards the server is intact: a well-formed graph submission
//     completes with a full-fidelity result, the books balance
//     (admitted == settled, admission cost back to zero), and every
//     per-client ledger is drained.
//
// scripts/hostile_chaos.sh wraps this target with a server lifecycle
// configured with tight limits.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"magis/internal/graphio"
	"magis/internal/models"
)

// jsonDecodeBody drains and decodes a response body (errors are the
// caller's concern only when the body matters).
func jsonDecodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// jsonRaw embeds pre-serialized JSON in a map destined for json.Marshal.
func jsonRaw(s string) json.RawMessage { return json.RawMessage(s) }

type hostileConfig struct {
	URL   string // server base URL
	Flood int    // bully submissions
	Good  int    // well-behaved submissions riding through the flood
}

// hostileGoodP95 is the SLO floor for the good client's p95 HTTP response
// time under the flood.
const hostileGoodP95 = 2 * time.Second

// hostileCorpus is the malformed/hostile request body corpus. Every entry
// must be refused with the expected status class; "reason" pins the
// machine-readable code where one specific reason is the contract.
var hostileCorpus = []struct {
	name   string
	body   string
	status int    // expected exact status (0 = any 4xx)
	reason string // expected reason code ("" = any)
}{
	{"empty body", ``, 0, ""},
	{"not json", `this is not json`, 400, "syntax"},
	{"truncated json", `{"model":"mlp"`, 400, "syntax"},
	{"unknown field", `{"model":"mlp","exploit":true}`, 400, "unknown-field"},
	{"unknown model", `{"model":"../../etc/passwd"}`, 400, "invalid"},
	{"negative scale", `{"model":"mlp","scale":-1}`, 400, "invalid"},
	{"hostile client id", `{"model":"mlp","client":"a b"}`, 400, "client"},
	{"graph and model", `{"model":"mlp","graph":{"magic":"magis-graph","version":1,"nodes":[]}}`, 400, "invalid"},
	{"graph wrong magic", `{"graph":{"magic":"evil","version":1,"nodes":[]}}`, 400, "header"},
	{"graph unknown envelope field", `{"graph":{"magic":"magis-graph","version":1,"nodes":[],"exploit":1}}`, 400, "unknown-field"},
	{"graph duplicate id", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[2],"dtype":0}},
		{"id":1,"op":{"kind":"Input","out":[2],"dtype":0}}]}}`, 400, "duplicate-id"},
	{"graph dangling input", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"ReLU","ins":[[2]],"out":[2],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[99]}]}}`, 400, "dangling-input"},
	{"graph unknown op", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Exploit","out":[2],"dtype":0}}]}}`, 400, "unknown-op"},
	{"graph bad dtype", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[2],"dtype":250}}]}}`, 400, "dtype"},
	{"graph negative dim", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[-8],"dtype":0}}]}}`, 400, "bad-shape"},
	{"graph overflow shape", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[2147483647,2147483647,2147483647],"dtype":0}}]}}`, 400, "bad-shape"},
	{"graph hostile link", `{"graph":{"magic":"magis-graph","version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[2],"dtype":0}},
		{"id":2,"op":{"kind":"ReLU","ins":[[2]],"out":[2],"dtype":0,"links":[[{"In":9,"Out":1}]]},"ins":[1]}]}}`, 400, "bad-link"},
}

// runHostile executes the adversarial harness; returns true when every
// invariant held.
func runHostile(ctx context.Context, cfg hostileConfig) bool {
	c := &soakClient{base: strings.TrimRight(cfg.URL, "/"), hc: &http.Client{Timeout: 30 * time.Second}}
	var viol soakViolations

	if _, err := c.getJSON("/healthz"); err != nil {
		fmt.Printf("hostile: server not reachable at %s: %v\n", cfg.URL, err)
		return false
	}
	fmt.Printf("hostile: corpus of %d attacks, flood of %d vs %d good requests, against %s\n",
		len(hostileCorpus), cfg.Flood, cfg.Good, cfg.URL)

	hostileCorpusPhase(ctx, c, &viol)
	hostileLorisPhase(c, &viol)
	goodIDs := hostileFloodPhase(ctx, c, cfg, &viol)
	hostileSettlePhase(ctx, c, goodIDs, &viol)

	if len(viol) > 0 {
		fmt.Printf("hostile: %d invariant violation(s):\n", len(viol))
		for _, v := range viol {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
		return false
	}
	fmt.Println("hostile: all invariants held")
	return true
}

// hostileCorpusPhase fires every corpus attack and requires a structured
// 4xx for each: right status, right reason, an error message, no 5xx.
func hostileCorpusPhase(ctx context.Context, c *soakClient, viol *soakViolations) {
	fmt.Println("hostile: corpus phase")
	for _, tc := range hostileCorpus {
		if ctx.Err() != nil {
			return
		}
		resp, err := c.hc.Post(c.base+"/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			viol.addf("corpus %q: transport error: %v", tc.name, err)
			continue
		}
		var body map[string]any
		_ = jsonDecodeBody(resp, &body)
		switch {
		case resp.StatusCode >= 500:
			viol.addf("corpus %q: got 5xx %d (%v)", tc.name, resp.StatusCode, body)
		case resp.StatusCode < 400:
			viol.addf("corpus %q: accepted with %d (%v)", tc.name, resp.StatusCode, body)
		case tc.status != 0 && resp.StatusCode != tc.status:
			viol.addf("corpus %q: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			viol.addf("corpus %q: rejection carries no error message (%v)", tc.name, body)
		}
		if tc.reason != "" {
			if r, _ := body["reason"].(string); r != tc.reason {
				viol.addf("corpus %q: reason %q, want %q (%v)", tc.name, body["reason"], tc.reason, body["error"])
			}
		}
	}
	// An oversized body (independent of JSON content) must be a 413.
	huge := `{"model":"mlp","budget":"` + strings.Repeat("x", 32<<20) + `"}`
	resp, err := c.hc.Post(c.base+"/optimize", "application/json", strings.NewReader(huge))
	if err == nil {
		var body map[string]any
		_ = jsonDecodeBody(resp, &body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			viol.addf("oversized body: status %d, want 413 (%v)", resp.StatusCode, body)
		}
	}
	// The server must still be healthy after the whole corpus.
	if hz, err := c.getJSON("/healthz"); err != nil || hz["status"] != "ok" {
		viol.addf("server unhealthy after corpus: %v (%v)", hz, err)
	}
}

// hostileLorisPhase dribbles a request header over a raw connection and
// requires the server to hang up on its own initiative.
func hostileLorisPhase(c *soakClient, viol *soakViolations) {
	fmt.Println("hostile: slow-loris phase")
	u, err := url.Parse(c.base)
	if err != nil {
		viol.addf("slow-loris: bad base URL %q: %v", c.base, err)
		return
	}
	conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
	if err != nil {
		viol.addf("slow-loris: dial: %v", err)
		return
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /optimize HT")); err != nil {
		viol.addf("slow-loris: write: %v", err)
		return
	}
	// Eviction = the server answers (408) and/or closes; the only failure
	// is our own read deadline firing with the server still waiting.
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 512)
	_, err = conn.Read(buf)
	for err == nil {
		_, err = conn.Read(buf)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		viol.addf("slow-loris connection survived 30s: server read timeouts not enforced")
		return
	}
	// The connection slot freed up: an honest request still lands.
	if _, err := c.getJSON("/healthz"); err != nil {
		viol.addf("healthz failed right after slow-loris eviction: %v", err)
	}
}

// hostileFloodPhase floods from the "bully" identity while the "good"
// identity paces modest requests, and asserts fair-share isolation: good
// requests all land with bounded latency, the bully collects 429s, and
// nobody sees a 5xx. Returns the good client's job IDs.
func hostileFloodPhase(ctx context.Context, c *soakClient, cfg hostileConfig, viol *soakViolations) []string {
	fmt.Println("hostile: flood phase")
	post := func(client, body string) (int, map[string]any, time.Duration, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+"/optimize", strings.NewReader(body))
		if err != nil {
			return 0, nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Magis-Client", client)
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, nil, time.Since(start), err
		}
		var m map[string]any
		_ = jsonDecodeBody(resp, &m)
		return resp.StatusCode, m, time.Since(start), nil
	}
	job := `{"model":"mlp","scale":0.01,"budget":"2s","iterations":8,"workers":1}`

	var wg sync.WaitGroup
	var mu sync.Mutex
	bullyAccepted, bullyRejected, server5xx := 0, 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < cfg.Flood && ctx.Err() == nil; i++ {
			code, _, _, err := post("bully", job)
			mu.Lock()
			switch {
			case err != nil:
				// transport errors under flood are the client's own timeout
			case code >= 500:
				server5xx++
			case code == http.StatusAccepted:
				bullyAccepted++
			case code == http.StatusTooManyRequests:
				bullyRejected++
			}
			mu.Unlock()
			time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
		}
	}()

	var goodIDs []string
	var goodLat []time.Duration
	goodOK := 0
	for i := 0; i < cfg.Good && ctx.Err() == nil; i++ {
		time.Sleep(300 * time.Millisecond) // paced well inside any sane rate limit
		code, body, lat, err := post("good", job)
		if err != nil {
			viol.addf("good request %d: transport error: %v", i, err)
			continue
		}
		goodLat = append(goodLat, lat)
		switch {
		case code == http.StatusAccepted:
			goodOK++
			if id, ok := body["id"].(string); ok {
				goodIDs = append(goodIDs, id)
			}
		case code >= 500:
			viol.addf("good request %d: 5xx %d (%v)", i, code, body)
		default:
			viol.addf("good request %d rejected with %d during flood: %v", i, code, body)
		}
	}
	wg.Wait()

	if server5xx > 0 {
		viol.addf("flood produced %d server 5xx responses", server5xx)
	}
	if goodOK < cfg.Good {
		viol.addf("good client landed %d/%d requests during the flood", goodOK, cfg.Good)
	}
	if bullyRejected == 0 {
		viol.addf("bully was never throttled (%d accepted, 0 rejected)", bullyAccepted)
	}
	if len(goodLat) > 0 {
		sort.Slice(goodLat, func(i, j int) bool { return goodLat[i] < goodLat[j] })
		p95 := goodLat[len(goodLat)*95/100]
		if p95 > hostileGoodP95 {
			viol.addf("good client p95 response time %v exceeds floor %v under flood", p95.Round(time.Millisecond), hostileGoodP95)
		}
		fmt.Printf("hostile: flood done — bully %d accepted / %d throttled; good %d/%d landed, p95 %v\n",
			bullyAccepted, bullyRejected, goodOK, cfg.Good, p95.Round(time.Millisecond))
	}
	return goodIDs
}

// hostileSettlePhase proves the server survived intact: the good client's
// jobs settle, a well-formed graph submission completes with a
// full-fidelity (non-degraded) result, and the books balance down to the
// per-client ledgers.
func hostileSettlePhase(ctx context.Context, c *soakClient, goodIDs []string, viol *soakViolations) {
	fmt.Println("hostile: settle phase")
	for _, id := range goodIDs {
		if state := soakAwaitTerminal(ctx, c, id, settleTimeout); state != "done" && state != "shed" {
			viol.addf("good job %s settled %q, want done (or shed under load)", id, state)
		}
	}

	// A well-formed graph document through the full ingestion pipeline.
	w, err := models.ByName("mlp", 1)
	if err != nil {
		viol.addf("build workload: %v", err)
		return
	}
	var doc strings.Builder
	if err := graphio.Save(&doc, w.G, nil); err != nil {
		viol.addf("serialize workload: %v", err)
		return
	}
	code, body, _, err := c.postOptimize(map[string]any{
		"graph": jsonRaw(doc.String()), "budget": "5s", "iterations": 10, "workers": 1,
	})
	if err != nil || code != http.StatusAccepted {
		viol.addf("well-formed graph submission: code %d err %v (%v)", code, err, body)
		return
	}
	id, _ := body["id"].(string)
	if state := soakAwaitTerminal(ctx, c, id, settleTimeout); state != "done" {
		viol.addf("graph job %s settled %q, want done", id, state)
	} else if v, err := c.getJSON("/jobs/" + id); err == nil {
		if res, ok := v["result"].(map[string]any); !ok || res["degraded"] == true {
			viol.addf("graph job %s did not produce a full-fidelity result: %v", id, v["result"])
		}
	}

	// Quiesce, then audit the books.
	quietBy := time.Now().Add(settleTimeout)
	var hz map[string]any
	for time.Now().Before(quietBy) && ctx.Err() == nil {
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
	clients, _ := m["clients"].(map[string]any)
	if clients == nil {
		viol.addf("per-client metrics absent after flood")
		return
	}
	for name, raw := range clients {
		cm, _ := raw.(map[string]any)
		if cm == nil {
			continue
		}
		if held, _ := cm["cost_held_ms"].(float64); held != 0 {
			viol.addf("client %q ledger not drained: cost_held_ms=%v", name, held)
		}
		if jobs, _ := cm["jobs_unsettled"].(float64); jobs != 0 {
			viol.addf("client %q ledger not drained: jobs_unsettled=%v", name, jobs)
		}
	}
	if clients["bully"] == nil || clients["good"] == nil {
		viol.addf("flood identities missing from per-client metrics: %v", clients)
	}
	fmt.Printf("hostile: books balanced — admitted=%v settled=%v, %d client ledger(s) drained\n",
		admitted, settled, len(clients))
}
