package serve

// Storage-degraded serving: the service must outlive its disk. Every
// persistence surface — plan-cache writes, search checkpoints, restart
// recovery — runs through an injectable filesystem (internal/fsatomic,
// faulted in tests by internal/errfs), and a persistence health state
// machine decides whether jobs may touch it at all:
//
//	healthy   -> degraded    after StorageThreshold consecutive faults
//	degraded  -> (probe)     after StorageCooloff, one caller probes the
//	                         disk with a real write; failure restarts the
//	                         degraded window
//	(probe)   -> recovered   a successful probe re-enables persistence
//
// While degraded, jobs keep running — uncached and uncheckpointed, their
// results labeled degraded_storage — instead of erroring: a full disk
// costs durability and cache hits, never answers. The machine mirrors
// the circuit-breaker idiom (breaker.go): a cooloff window, a single
// half-open probe, and abandon-safety so the probe slot cannot wedge.

import (
	"errors"
	"path/filepath"
	"sync"
	"time"

	"magis/internal/fsatomic"
	"magis/internal/opt"
)

// Persistence health states, as reported by /healthz and /metrics.
const (
	storageHealthy   = "healthy"
	storageDegraded  = "degraded"
	storageRecovered = "recovered"
)

// storageHealth is the persistence health state machine. All persistence
// shares one machine (unlike the per-workload breaker): a full disk is
// full for everyone.
type storageHealth struct {
	mu        sync.Mutex
	threshold int // consecutive faults to degrade; <=0 disables
	cooloff   time.Duration
	state     string
	faults    int       // consecutive faults while not degraded
	until     time.Time // degraded holds until this instant, then probes
	probing   bool      // a recovery probe is in flight
}

func newStorageHealth(threshold int, cooloff time.Duration) *storageHealth {
	return &storageHealth{threshold: threshold, cooloff: cooloff, state: storageHealthy}
}

// current reports the state name.
func (h *storageHealth) current() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// allow reports whether persistence may be used right now. During the
// degraded window it refuses; once the cooloff elapses it grants exactly
// one caller the recovery probe (probe=true). That caller must settle
// the probe with onOK or onFault — like the breaker's half-open slot —
// or release it with onAbandon.
func (h *storageHealth) allow(now time.Time) (ok, probe bool) {
	if h.threshold <= 0 {
		return true, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != storageDegraded {
		return true, false
	}
	if now.Before(h.until) || h.probing {
		return false, false
	}
	h.probing = true
	return true, true
}

// onOK records a successful storage interaction; it reports true when
// that success was the recovery probe closing the degraded state.
func (h *storageHealth) onOK() bool {
	if h.threshold <= 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faults = 0
	if h.state == storageDegraded && h.probing {
		h.probing = false
		h.state = storageRecovered
		return true
	}
	return false
}

// onFault records one storage fault; it reports true when this fault
// flips persistence to degraded. A fault while degraded (the probe, or a
// straggler job that was already mid-write) restarts the window.
func (h *storageHealth) onFault(now time.Time) bool {
	if h.threshold <= 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == storageDegraded {
		h.probing = false
		h.until = now.Add(h.cooloff)
		return false
	}
	h.faults++
	if h.faults >= h.threshold {
		h.state = storageDegraded
		h.until = now.Add(h.cooloff)
		h.probing = false
		return true
	}
	return false
}

// onAbandon releases a probe slot whose owner settled without a verdict.
func (h *storageHealth) onAbandon() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// noteStorageFault counts one persistence fault against the health
// machine and logs the transition when it degrades.
func (s *Server) noteStorageFault(op string, err error) {
	s.met[cStorageFaults].Add(1)
	if s.storage.onFault(time.Now()) {
		s.cfg.Logf("serve: storage degraded after repeated faults (%s: %v); serving uncached and uncheckpointed", op, err)
	} else {
		s.cfg.Logf("serve: storage fault (%s): %v", op, err)
	}
}

// storageAllowed decides whether a job may touch persistence, running
// the recovery probe inline when one is due. Persistence that is not
// configured (no checkpoint dir, no cache) never degrades anything.
func (s *Server) storageAllowed() bool {
	if s.cfg.CheckpointDir == "" && s.cfg.Cache == nil {
		return true
	}
	ok, probe := s.storage.allow(time.Now())
	if !ok {
		return false
	}
	if !probe {
		return true
	}
	if err := s.probeStorage(); err != nil {
		s.noteStorageFault("probe", err)
		return false
	}
	if s.storage.onOK() {
		s.met[cStorageRecoveries].Add(1)
		s.cfg.Logf("serve: storage recovered after successful probe")
	}
	return true
}

// probeStorage exercises the real write path — temp file, sync, rename,
// remove — through the server's (possibly fault-injected) filesystem.
// With no checkpoint directory to write into, the probe degrades to
// optimistic: the next real cache write delivers the verdict.
func (s *Server) probeStorage() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	path := filepath.Join(s.cfg.CheckpointDir, ".storage-probe")
	if err := fsatomic.WriteFileFS(s.fsys, path, []byte("probe\n"), 0o644); err != nil {
		return err
	}
	return s.fsys.Remove(path)
}

// noteSearchTelemetry settles a finished search's storage and governor
// evidence: a checkpoint write failure is a storage fault (transient or
// not — the flush already retried nothing, and a degraded machine probes
// its way back), successful flushes are health signals, and governor
// activity lands on the /metrics counters.
func (s *Server) noteSearchTelemetry(res *opt.Result) {
	if res == nil {
		return
	}
	if ck := res.Checkpoint; ck != nil {
		if ck.Err != "" {
			s.noteStorageFault("checkpoint", errors.New(ck.Err))
		} else if ck.Writes > 0 {
			s.storage.onOK()
		}
	}
	if g := res.Governor; g != nil {
		s.met[cGovernorEvicted].Add(int64(g.EvictedStates))
		if res.Stopped == opt.StopMemBudget {
			s.met[cGovernorStops].Add(1)
		}
	}
}
