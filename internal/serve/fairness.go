package serve

// Per-client fairness isolation. The overload layer (admission.go) bounds
// the server's total exposure; this file bounds any single client's slice
// of it, so one flooding tenant collects 429s while everybody else keeps
// their SLO. Three independent mechanisms compose:
//
//   - a per-client token bucket on request arrival (ClientRate/ClientBurst):
//     the cheapest gate, charged before any per-request work;
//   - a per-client fair-share cost ledger layered under AdmitBudget
//     (ClientShare): the estimated service time one client may hold
//     concurrently, with the same single-job idle exception the global
//     budget grants;
//   - a per-client occupancy cap in the EDF queue (ClientQueue, enforced
//     by jobQueue.push under the queue lock, so concurrent arrivals
//     cannot jointly overshoot it).
//
// Client identity is declarative (header or request field) — this is a
// fairness mechanism against well-behaved-but-greedy and accidentally
// abusive traffic, not an authentication system; an adversary who forges
// identities per request degrades to the global admission budget, which
// still bounds the server's total exposure.

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// maxTrackedClients bounds the ledger map: past it, the least recently
// seen client with nothing held is evicted. A client-name churn attack
// therefore costs the attacker its own rate-limit state, never server
// memory.
const maxTrackedClients = 4096

// anonClient is the identity of requests that declare none.
const anonClient = "anon"

// clientState is one client's ledger entry. All fields are guarded by
// the ledger mutex.
type clientState struct {
	tokens   float64 // token bucket level
	lastFill time.Time
	held     int64 // admission cost units currently held
	jobs     int   // unsettled jobs (queued + running)
	lastSeen time.Time
	counts   [numClientCounters]int64 // for /metrics
}

// clientCounter indexes a client's /metrics counters.
type clientCounter int

const (
	clientAdmitted clientCounter = iota
	clientSettled
	clientRejRate
	clientRejShare
	clientRejQueue
	numClientCounters
)

// clientCounterNames are the counters' /metrics keys.
var clientCounterNames = [numClientCounters]string{
	"admitted", "settled", "rejected_rate", "rejected_share", "rejected_queue",
}

// clientLedger tracks per-client admission state. A zero-configured
// ledger (no rate, no share, no queue cap) disables all tracking, so
// deployments that never opt in keep their flat memory profile.
type clientLedger struct {
	rate       float64 // tokens (requests) per second; <= 0 disables
	burst      float64
	shareUnits int64 // max cost units held per client; <= 0 disables
	queueCap   int   // informational here; enforced by jobQueue

	mu      sync.Mutex
	clients map[string]*clientState
}

func newClientLedger(cfg Config) *clientLedger {
	l := &clientLedger{
		rate:     cfg.ClientRate,
		burst:    float64(cfg.ClientBurst),
		queueCap: cfg.ClientQueue,
	}
	if cfg.ClientShare > 0 {
		l.shareUnits = int64(cfg.ClientShare * float64(costUnits(cfg.AdmitBudget)))
		if l.shareUnits < 1 {
			l.shareUnits = 1
		}
	}
	if l.enabled() {
		l.clients = make(map[string]*clientState)
	}
	return l
}

func (l *clientLedger) enabled() bool {
	return l.rate > 0 || l.shareUnits > 0 || l.queueCap > 0
}

// share returns the per-client concurrent-cost cap (0 = disabled).
func (l *clientLedger) share() int64 { return l.shareUnits }

// state returns (creating if needed) the entry for name. Caller holds
// l.mu. At the tracking cap, the least recently seen idle client is
// evicted first; a table full of clients with work in flight admits the
// newcomer untracked-equivalent (fresh entry) only after eviction
// succeeds — otherwise the oldest idle entry's slot is reused.
func (l *clientLedger) state(name string, now time.Time) *clientState {
	st, ok := l.clients[name]
	if !ok {
		if len(l.clients) >= maxTrackedClients {
			l.evictIdle()
		}
		st = &clientState{tokens: l.burst, lastFill: now}
		l.clients[name] = st
	}
	st.lastSeen = now
	return st
}

// evictIdle removes the least recently seen client holding no cost and
// no jobs. Caller holds l.mu.
func (l *clientLedger) evictIdle() {
	victim := ""
	var oldest time.Time
	for name, st := range l.clients {
		if st.held != 0 || st.jobs != 0 {
			continue
		}
		if victim == "" || st.lastSeen.Before(oldest) {
			victim = name
			oldest = st.lastSeen
		}
	}
	if victim != "" {
		delete(l.clients, victim)
	}
}

// allow charges one request against the client's token bucket, returning
// whether it may proceed and — when it may not — a Retry-After hint in
// seconds. With no rate configured every request passes.
func (l *clientLedger) allow(name string, now time.Time) (bool, int) {
	if l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state(name, now)
	st.tokens += now.Sub(st.lastFill).Seconds() * l.rate
	if st.tokens > l.burst {
		st.tokens = l.burst
	}
	st.lastFill = now
	if st.tokens < 1 {
		st.counts[clientRejRate]++
		after := int(math.Ceil((1 - st.tokens) / l.rate))
		if after < 1 {
			after = 1
		}
		return false, after
	}
	st.tokens--
	return true, 0
}

// hold reserves units against name's fair-share ledger and returns the
// post-reservation totals (held units, unsettled jobs). Reserve-then-
// check mirrors the global budget: the mutexed add serializes concurrent
// same-client arrivals so they cannot jointly overshoot the share.
func (l *clientLedger) hold(name string, units int64, now time.Time) (int64, int) {
	if !l.enabled() {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state(name, now)
	st.held += units
	st.jobs++
	return st.held, st.jobs
}

// release returns a hold when its job settles.
func (l *clientLedger) release(name string, units int64) {
	if !l.enabled() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.clients[name]; ok {
		st.held -= units
		st.jobs--
		st.counts[clientSettled]++
		if st.held < 0 {
			st.held = 0
		}
		if st.jobs < 0 {
			st.jobs = 0
		}
	}
}

// note bumps a per-client counter.
func (l *clientLedger) note(name string, c clientCounter) {
	if !l.enabled() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state(name, time.Now()).counts[c]++
}

// snapshot renders the per-client counters for /metrics.
func (l *clientLedger) snapshot() map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]any, len(l.clients))
	for name, st := range l.clients {
		m := map[string]int64{"cost_held_ms": st.held, "jobs_unsettled": int64(st.jobs)}
		for c, key := range clientCounterNames {
			m[key] = st.counts[c]
		}
		out[name] = m
	}
	return out
}

// resolveClient derives the request's client identity: the body field
// wins, then the X-Magis-Client header, then the shared anonymous
// identity. Identities are length- and charset-bounded — they become map
// keys, metric labels, and log fields, so hostile bytes are rejected at
// the door.
func resolveClient(bodyClient, headerClient string) (string, error) {
	name := bodyClient
	if name == "" {
		name = headerClient
	}
	if name == "" {
		return anonClient, nil
	}
	if len(name) > 64 {
		return "", fmt.Errorf("client identity longer than 64 bytes")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("client identity contains %q: want [A-Za-z0-9._-]", c)
		}
	}
	return name, nil
}
