package serve

// One half-open circuit serves both of the service's failure isolators:
// the per-workload breaker below (a graph that keeps failing — verify
// rejections, rule panics, checkpoint corruption, injected faults — must
// not monopolize workers while healthy traffic starves) and the storage
// health machine (storage.go; a full disk must cost durability, never
// answers). A circuit counts consecutive failures; at the threshold it
// opens and refuses callers for a cooloff window. After the window one
// caller is admitted as the half-open probe, and its verdict closes the
// circuit or opens it for another window. Two rules keep a straggler —
// a caller admitted before the circuit opened — from overruling it:
//
//   - a failure while open with no probe out restarts the window;
//   - a success while open with no probe out leaves the circuit open.
//
// A probe that settles without a verdict (shed, drain-cancelled, refused
// by a later admission gate) must abandon its slot so the circuit cannot
// wedge open.

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// circuitPolicy is when a circuit trips and how long it stays open.
type circuitPolicy struct {
	threshold int // consecutive failures to trip; <=0 disables
	cooloff   time.Duration
}

// circuit is one half-open circuit's state. It holds no lock: its owner
// (breaker, storageCircuit) serializes every call.
type circuit struct {
	fails     int       // consecutive failures while closed
	openUntil time.Time // zero when closed
	probing   bool      // a half-open probe is out
}

func (c *circuit) open() bool { return !c.openUntil.IsZero() }

// allow reports whether a caller may pass now. During the window it
// refuses; once the window has elapsed it admits exactly one caller as
// the probe (probe=true), which must then settle the slot with fail,
// succeed or abandon. wait is how long a refused caller should hold off.
func (c *circuit) allow(p circuitPolicy, now time.Time) (ok, probe bool, wait time.Duration) {
	switch {
	case !c.open():
		return true, false, 0
	case now.Before(c.openUntil):
		return false, false, c.openUntil.Sub(now)
	case c.probing:
		return false, false, p.cooloff
	}
	c.probing = true
	return true, true, 0
}

// fail records one failure and reports a trip: it opened a closed
// circuit, or it failed the outstanding probe. Either way, and on a
// straggler failure while open, the window restarts.
func (c *circuit) fail(p circuitPolicy, now time.Time) (tripped bool) {
	if p.threshold <= 0 {
		return false
	}
	if c.open() {
		tripped, c.probing = c.probing, false
		c.openUntil = now.Add(p.cooloff)
		return tripped
	}
	if c.fails++; c.fails < p.threshold {
		return false
	}
	c.openUntil = now.Add(p.cooloff)
	return true
}

// succeed records one success: it resets the failure streak and, when a
// probe is out, closes the circuit, reporting true.
func (c *circuit) succeed() (closed bool) {
	c.fails = 0
	if !c.probing {
		return false
	}
	*c = circuit{}
	return true
}

// abandon releases the probe slot of a caller that settled without a
// verdict: the circuit stays open-but-probeable, so the next caller
// becomes the new probe.
func (c *circuit) abandon() { c.probing = false }

// breaker is the per-workload circuit breaker, keyed model|scale|mode.
// Only circuits that are open or mid-streak are kept.
type breaker struct {
	mu sync.Mutex
	circuitPolicy
	states map[string]*circuit
}

func newBreaker(p circuitPolicy) *breaker {
	return &breaker{circuitPolicy: p, states: map[string]*circuit{}}
}

// breakerKey groups requests that exercise the same graph and search
// mode — the unit at which a poison workload fails.
func breakerKey(model string, scale float64, mode string) string {
	return fmt.Sprintf("%s|%g|%s", strings.ToLower(model), scale, mode)
}

// blocked reports whether admission must reject this workload now, with
// a Retry-After hint in seconds. probe=true hands the caller the
// half-open slot: it must settle it with a verdict or release it with
// abandon on every other exit — including rejection later in admission.
func (b *breaker) blocked(key string, now time.Time) (retryAfter int, open, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.states[key]
	if c == nil {
		return 0, false, false
	}
	ok, probe, wait := c.allow(b.circuitPolicy, now)
	if !ok {
		return int(wait/time.Second) + 1, true, false
	}
	return 0, false, probe
}

// succeed records a job that succeeded; a closed circuit is dropped.
func (b *breaker) succeed(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.states[key]; c != nil {
		c.succeed()
		if !c.open() {
			delete(b.states, key)
		}
	}
}

// fail records one failed job; it reports true when this failure
// trips (or re-trips) the breaker open.
func (b *breaker) fail(key string, now time.Time) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.states[key]
	if c == nil {
		c = &circuit{}
		b.states[key] = c
	}
	return c.fail(b.circuitPolicy, now)
}

// abandon releases key's half-open probe slot.
func (b *breaker) abandon(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.states[key]; c != nil {
		c.abandon()
	}
}

// openCount reports how many workload breakers are not closed — open or
// half-open — for /metrics.
func (b *breaker) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.states {
		if c.open() {
			n++
		}
	}
	return n
}
