package serve

// Resource-aware admission: instead of counting queue slots, the server
// prices every request up-front — how long will this search actually
// take? — and admits against a concurrent-cost budget. The price depends
// on the workload's size (node count), the requested search budget, and
// what the plan cache already knows (an exact hit costs milliseconds, a
// warm start a fraction of a cold search). Admitted cost is held until
// the job settles, so the budget measures work-in-the-building, not
// arrival rate.

import (
	"fmt"
	"strings"
	"time"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
)

// Estimated fixed overheads per admission class: a cache hit reads and
// replays one entry; searches additionally evaluate the baseline twice
// and write checkpoints.
const (
	hitServeCost    = 50 * time.Millisecond
	searchOverhead  = 100 * time.Millisecond
	warmStartFactor = 2 // warm starts are priced at 1/warmStartFactor of cold
)

// wlStats caches the per-(model, scale) facts admission needs: graph
// size, the probe hashes, and the baseline metrics the search limits
// derive from. Building a workload graph and evaluating its baseline
// costs milliseconds — fine once, not on every request of a hot model.
type wlStats struct {
	nodes   int
	wl      uint64
	topo    uint64
	baseMem int64
	baseLat float64
}

func (s *Server) workloadStats(name string, scale float64) (*wlStats, error) {
	key := fmt.Sprintf("%s|%g", strings.ToLower(name), scale)
	s.wlMu.Lock()
	st, ok := s.wlStats[key]
	s.wlMu.Unlock()
	if ok {
		return st, nil
	}
	w, err := models.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	st = s.statsOf(w.G)
	s.wlMu.Lock()
	s.wlStats[key] = st
	s.wlMu.Unlock()
	return st, nil
}

// graphStats prices a direct graph submission. Deliberately NOT memoized:
// the cache key would be client-controlled graph content, and an attacker
// rotating graphs would grow the map without bound. The baseline
// evaluation runs under opt.Guard so a graph that slips past ingestion
// and still panics the evaluator fails its own request, not the server.
func (s *Server) graphStats(g *graph.Graph) (*wlStats, error) {
	var st *wlStats
	err := opt.Guard("serve", "graph-stats", func() error {
		st = s.statsOf(g)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("graph baseline evaluation failed: %w", err)
	}
	return st, nil
}

func (s *Server) statsOf(g *graph.Graph) *wlStats {
	base := opt.Baseline(g, s.cfg.Model)
	return &wlStats{
		nodes:   g.Len(),
		wl:      g.WLHash(),
		topo:    plancache.TopoHash(g),
		baseMem: base.PeakMem,
		baseLat: base.Latency,
	}
}

// searchOptions builds the search configuration for a job from the
// workload's baseline metrics. Admission and the search runner share this
// one constructor so the fingerprint admission probes with is the
// fingerprint cachedSearch looks up — estimate and execution can never
// disagree about the cache key.
func (s *Server) searchOptions(j *job, baseMem int64, baseLat float64) opt.Options {
	o := opt.Options{
		TimeBudget:    j.budget,
		Workers:       j.req.Workers,
		MaxIterations: j.req.Iterations,
		// The service-wide memory budget rides into every search: a job
		// that outgrows it sheds frontier state and, at worst, settles
		// with its best-so-far (Stopped = "mem-budget") instead of
		// taking the process down.
		MemBudget: s.cfg.MemBudget,
	}
	switch j.req.Mode {
	case "latency":
		o.Mode = opt.LatencyUnderMemory
		o.MemLimit = int64(j.req.Limit * float64(baseMem))
	default:
		o.Mode = opt.MemoryUnderLatency
		o.LatencyLimit = baseLat * (1 + j.req.Limit)
	}
	return o
}

// estimateJob prices one fresh job: its cache class (index-only probe, no
// disk) and the predicted service time. The estimate errs pessimistic for
// searches (budget-bound searches that converge early cost less) and the
// class can only degrade hit→search at run time, so admission over-
// reserves rather than over-admits.
func (s *Server) estimateJob(j *job) error {
	var st *wlStats
	var err error
	if j.g != nil {
		st, err = s.graphStats(j.g)
	} else {
		st, err = s.workloadStats(j.req.Model, j.req.Scale)
	}
	if err != nil {
		return err
	}
	o := s.searchOptions(j, st.baseMem, st.baseLat)
	class := plancache.ClassCold
	if s.cfg.Cache != nil {
		class = s.cfg.Cache.Probe(st.wl, st.topo, plancache.FingerprintFor(s.cfg.Model, o))
	}
	full := opt.EstimateSearchTime(st.nodes, o)
	var serve time.Duration
	switch class {
	case plancache.ClassHit:
		serve = hitServeCost
	case plancache.ClassWarm:
		serve = full/warmStartFactor + searchOverhead
	default:
		serve = full + searchOverhead
	}
	j.class = class
	j.estServe = serve
	j.estUnits = costUnits(serve)
	// minServe is the floor for deadline feasibility, distinct from the
	// full-search price above: the search is anytime, so any deadline that
	// leaves room for the fixed overhead plus the initial baseline
	// evaluation and one expansion can still be answered — degraded,
	// best-so-far, but answered. Only deadlines below even that floor are
	// truly doomed.
	j.minServe = serve
	if class != plancache.ClassHit {
		j.minServe = searchOverhead + opt.EstimateSearchTime(st.nodes, opt.Options{
			TimeBudget:    -1, // uncapped: the single-expansion term is the cap
			Workers:       o.Workers,
			MaxIterations: 1,
		})
	}
	return nil
}

// costUnits converts a predicted service time to admission cost units
// (milliseconds, floored at 1 so even a free-looking job reserves
// something).
func costUnits(d time.Duration) int64 {
	u := int64(d / time.Millisecond)
	if u < 1 {
		u = 1
	}
	return u
}

// costTotals is the post-reservation snapshot holdCost returns: the
// global total in use plus the holding client's own totals, so admission
// can check both budgets from one reservation.
type costTotals struct {
	total      int64 // global cost units in use
	clientHeld int64 // this client's cost units in use
	clientJobs int   // this client's unsettled jobs
}

// holdCost reserves a job's estimated cost against the admission budget
// (and the per-client ledger) and returns the resulting totals;
// releaseCost returns the hold exactly once when the job settles.
// Reserving and reading the total in one atomic add lets admission check
// the budgets race-free (reserve, check, roll back on overshoot) instead
// of check-then-hold. A stall resume keeps its hold — the work is still
// in the building.
func (s *Server) holdCost(j *job) costTotals {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.costHeld {
		j.costHeld = true
		held, jobs := s.clients.hold(j.client, j.estUnits, time.Now())
		return costTotals{
			total:      s.costInUse.Add(j.estUnits),
			clientHeld: held,
			clientJobs: jobs,
		}
	}
	return costTotals{total: s.costInUse.Load()}
}

func (s *Server) releaseCost(j *job) {
	j.mu.Lock()
	if j.costHeld {
		j.costHeld = false
		s.costInUse.Add(-j.estUnits)
		s.clients.release(j.client, j.estUnits)
	}
	j.mu.Unlock()
}

// retryAfter estimates when capacity frees up: the queued work divided
// across the workers, clamped to [1s, 60s]. A hint, not a promise — but a
// hint derived from the actual backlog beats a constant.
func (s *Server) retryAfter() int {
	queued := s.costInUse.Load()
	workers := int64(s.cfg.Workers)
	sec := queued / (1000 * workers)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return int(sec)
}

// doomed reports that a job's client deadline can no longer be met even
// if a worker picked it up right now — not even by the weakest acceptable
// response (minServe: a hit replay, or a baseline-plus-one-expansion
// degraded answer). Deadline-less jobs are never doomed.
func doomed(j *job, now time.Time) bool {
	if j.deadline.IsZero() {
		return false
	}
	return now.Add(j.minServe).After(j.deadline)
}

// shedJob settles a queued job as shed (o is shedExpired or shedEvicted)
// without running it.
func (s *Server) shedJob(j *job, o outcome) {
	if s.settle(j, o) {
		s.cfg.Logf("serve: %s shed (%s)", j.id, o.err)
	}
}

// shedExpiredQueued sweeps the queue for jobs whose deadline is already
// unmeetable, settling each as shed. Returns how many were removed. Runs
// at admission (to free room before rejecting) and on every watchdog
// tick (so expired work never waits for a worker just to be discarded).
func (s *Server) shedExpiredQueued() int {
	now := time.Now()
	removed := s.queue.removeIf(func(j *job) bool { return doomed(j, now) })
	for _, j := range removed {
		s.shedJob(j, shedExpired)
	}
	return len(removed)
}

// admitQueued pushes an estimated job into the queue, shedding doomed
// work first and — for deadline-urgent jobs — evicting the cheapest
// strictly-laxer queued job when the queue is still full. A per-client
// occupancy rejection short-circuits: the client is over its own slot
// allotment, so nobody else's work should be shed to accommodate it.
func (s *Server) admitQueued(j *job) pushVerdict {
	v := s.queue.push(j)
	if v != pushFull {
		return v // admitted, or refused for a reason eviction cannot fix
	}
	if s.shedExpiredQueued() > 0 {
		if v = s.queue.push(j); v != pushFull {
			return v
		}
	}
	if !j.deadline.IsZero() {
		// Cheapest-first eviction under pressure: among queued jobs that
		// are strictly less urgent (no deadline, or a later one), the one
		// with the smallest reserved cost is shed to make room.
		victim := s.queue.evictOne(func(q *job) bool {
			return q.deadline.IsZero() || q.deadline.After(j.deadline)
		}, func(q *job) int64 { return q.estUnits })
		if victim != nil {
			s.shedJob(victim, shedEvicted)
			if v = s.queue.push(j); v != pushFull {
				return v
			}
		}
	}
	return pushFull
}
