// Package serve is the supervised service front-end for long-running
// MAGIS searches: an HTTP API over a bounded job queue with admission
// control, per-job panic isolation, a stall watchdog, and crash-safe
// drain built on the search checkpoints of internal/opt.
//
// Operational posture:
//
//   - Admission is non-blocking and resource-aware: every request is
//     priced up-front (graph size, search budget, plan-cache class) and
//     admitted against a concurrent-cost budget; a full queue or an
//     exhausted budget rejects with 429 and a backlog-derived Retry-After
//     hint before any work starts; a draining server rejects with 503.
//   - Client deadlines ride into an earliest-deadline-first queue: jobs
//     whose deadline becomes unmeetable are shed before they occupy a
//     worker, and a search truncated by its deadline settles done with the
//     best-so-far plan explicitly marked degraded (internal/robust picks
//     the strongest servable tier).
//   - A per-workload circuit breaker (model|scale|mode) opens after
//     repeated failures, rejecting that workload for a cooloff and then
//     admitting a single half-open probe — a poison graph cannot
//     monopolize workers while healthy traffic starves.
//   - Every job runs under opt.Guard, so a panicking search marks one job
//     failed instead of killing the process.
//   - A watchdog cancels jobs that stop making expansion progress for a
//     stall window; a stalled job with a checkpoint is re-admitted once to
//     resume from its last snapshot.
//   - Drain (SIGTERM in cmd/magis-serve) stops admission, cancels
//     in-flight searches — each writes a final checkpoint on the way out —
//     and waits for the workers. A restarted server pointed at the same
//     checkpoint directory re-admits those jobs and resumes them.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magis/internal/cost"
	"magis/internal/fsatomic"
	"magis/internal/graph"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
)

// Config configures a Server. Model is required; everything else has
// serviceable defaults.
type Config struct {
	// Model prices every search (required).
	Model *cost.Model
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 8). Beyond it, /optimize returns 429.
	QueueDepth int
	// Workers is the number of jobs run concurrently (default 1; each
	// search parallelizes internally via its own Workers option).
	Workers int
	// DefaultBudget is the search budget when a request omits one
	// (default 10s); MaxBudget caps what a request may ask for
	// (default 5m).
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// CheckpointDir enables crash-safe jobs: each search checkpoints into
	// <dir>/<job-id>.ckpt, and Start re-admits any checkpoints found there
	// (jobs interrupted by a previous drain or crash). Empty disables
	// checkpointing, stall resume, and restart recovery.
	CheckpointDir string
	// CheckpointEveryN is the snapshot flush cadence in expansions
	// (0 = the opt default).
	CheckpointEveryN int
	// StallWindow is how long a running job may go without completing an
	// expansion before the watchdog cancels it (default 30s; negative
	// disables the watchdog). StallPoll is the scan interval (default
	// StallWindow/4).
	StallWindow time.Duration
	StallPoll   time.Duration
	// Cache, when set, serves verified plans from the persistent plan
	// cache: exact hits answer without running a search, near misses
	// warm-start the search, and concurrent identical requests share one
	// in-flight search. Resumed jobs bypass the cache entirely, so the
	// kill-resume determinism guarantee is unchanged. Nil disables
	// caching.
	Cache *plancache.Cache
	// AdmitBudget bounds the total estimated service time (see
	// opt.EstimateSearchTime) held by admitted-but-unsettled jobs: beyond
	// it /optimize rejects with 429 even when queue slots remain, so a few
	// enormous cold searches cannot promise more work than the server can
	// deliver. Default 2×(QueueDepth+Workers)×DefaultBudget. An otherwise
	// idle server always admits one job regardless of its size.
	AdmitBudget time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// workload's circuit breaker (default 3; negative disables breakers).
	// BreakerCooloff is how long an open breaker rejects its workload
	// before admitting a half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// FailModel, when non-empty, makes every search of the named model fail
	// (fault injection for the chaos soak: a deterministic poison workload
	// that must trip its breaker without starving healthy traffic).
	FailModel string
	// FS is the filesystem checkpoints, recovery, and storage probes go
	// through; nil means the real OS. The chaos harness injects faults here
	// (internal/errfs) — note the plan cache carries its own FS in its own
	// Config.
	FS fsatomic.FS
	// MemBudget, when positive, runs every search under the opt memory
	// governor (opt.Options.MemBudget): past the budget the search sheds
	// frontier state and, if still over, stops with its best-so-far.
	MemBudget int64
	// StorageThreshold is the consecutive persistence-fault count that
	// flips storage health to degraded (default 3; negative disables the
	// machine). StorageCooloff is how long degraded holds before a
	// recovery probe (default 30s). While degraded, jobs run uncached and
	// uncheckpointed with a degraded_storage label instead of erroring.
	StorageThreshold int
	StorageCooloff   time.Duration
	// CheckpointGCAge and CheckpointGCMax bound restart recovery's
	// retention of orphaned checkpoints: snapshots older than the age
	// (default 24h) or beyond the count cap (default 64, oldest first) are
	// garbage-collected instead of re-admitted. Negative disables the
	// respective bound.
	CheckpointGCAge time.Duration
	CheckpointGCMax int
	// MaxBody bounds the /optimize request body in bytes (default 8 MiB).
	// Oversized bodies reject with 413 before the JSON decoder runs.
	MaxBody int64
	// Ingest bounds direct graph submissions (see internal/ingest); zero
	// fields take ingest.DefaultLimits. Only consulted when a request
	// carries a graph.
	Ingest ingest.Limits
	// ClientRate / ClientBurst configure the per-client request token
	// bucket (requests per second / bucket size). Zero rate disables it;
	// burst defaults to 8 when a rate is set.
	ClientRate  float64
	ClientBurst int
	// ClientShare is one client's fair-share fraction of AdmitBudget in
	// (0,1]: the estimated service time a single client identity may hold
	// concurrently. Zero disables per-client cost isolation.
	ClientShare float64
	// ClientQueue caps how many queued (not yet running) jobs one client
	// identity may hold. Zero disables the cap.
	ClientQueue int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Minute
	}
	if c.StallWindow == 0 {
		c.StallWindow = 30 * time.Second
	}
	if c.StallPoll <= 0 {
		c.StallPoll = c.StallWindow / 4
		if c.StallPoll <= 0 {
			c.StallPoll = time.Second
		}
	}
	if c.AdmitBudget <= 0 {
		c.AdmitBudget = 2 * time.Duration(c.QueueDepth+c.Workers) * c.DefaultBudget
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 30 * time.Second
	}
	if c.StorageThreshold == 0 {
		c.StorageThreshold = 3
	}
	if c.StorageCooloff <= 0 {
		c.StorageCooloff = 30 * time.Second
	}
	if c.CheckpointGCAge == 0 {
		c.CheckpointGCAge = 24 * time.Hour
	}
	if c.CheckpointGCMax == 0 {
		c.CheckpointGCMax = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.ClientRate > 0 && c.ClientBurst <= 0 {
		c.ClientBurst = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// counter indexes the service counters. counterNames gives each one's
// /metrics key; the plan-cache counters, last in the table, are reported
// only when a cache is configured.
type counter int

const (
	cAdmitted counter = iota
	cRejectedFull
	cRejectedDraining
	cRejectedInvalid
	cCompleted
	cFailed
	cCancelled
	cStalled
	cResumed
	cExpansions
	// Restart-recovery checkpoints that failed to read back and were moved
	// aside.
	cCkptQuarantined
	// Per-class admissions: how the admission estimator classified each
	// accepted job against the plan cache.
	cAdmittedHit
	cAdmittedWarm
	cAdmittedCold
	// Overload-protection outcomes: rejections by reason, queued jobs shed
	// before running, degraded anytime responses, breaker trips.
	cRejectedCost
	cRejectedBreaker
	cRejectedDeadline
	cShedExpired
	cShedEvicted
	cDegraded
	cBreakerTrips
	// Storage-robustness outcomes: persistence faults observed, jobs run
	// with persistence disabled, successful recovery probes, and orphaned
	// checkpoints garbage-collected at restart.
	cStorageFaults
	cStorageDegradedJobs
	cStorageRecoveries
	cCkptGCed
	// Memory-governor outcomes across all searches: runs stopped at the
	// budget and frontier states shed.
	cGovernorStops
	cGovernorEvicted
	// Hostile-traffic outcomes: oversized bodies, graphs rejected at
	// ingestion, search bombs caught by the preflight, and per-client
	// fairness rejections (rate, fair-share cost, queue occupancy).
	cRejectedTooLarge
	cRejectedIngest
	cRejectedBomb
	cRejectedClientRate
	cRejectedClientShare
	cRejectedClientQueue
	// Plan-cache outcomes, counted per job: answered from an exact entry,
	// missed, warm-started from a near miss, or shared another request's
	// in-flight search.
	cCacheHits
	cCacheMisses
	cCacheWarmStarts
	cFlightShared
	numCounters
)

var counterNames = [numCounters]string{
	cAdmitted:            "admitted",
	cRejectedFull:        "rejected_full",
	cRejectedDraining:    "rejected_draining",
	cRejectedInvalid:     "rejected_invalid",
	cCompleted:           "completed",
	cFailed:              "failed",
	cCancelled:           "cancelled",
	cStalled:             "stalled",
	cResumed:             "resumed",
	cExpansions:          "expansions",
	cCkptQuarantined:     "ckpt_quarantined",
	cAdmittedHit:         "admitted_hit",
	cAdmittedWarm:        "admitted_warm",
	cAdmittedCold:        "admitted_cold",
	cRejectedCost:        "rejected_cost",
	cRejectedBreaker:     "rejected_breaker",
	cRejectedDeadline:    "rejected_deadline",
	cShedExpired:         "shed_expired",
	cShedEvicted:         "shed_evicted",
	cDegraded:            "degraded",
	cBreakerTrips:        "breaker_trips",
	cStorageFaults:       "storage_faults",
	cStorageDegradedJobs: "storage_degraded_jobs",
	cStorageRecoveries:   "storage_recoveries",
	cCkptGCed:            "checkpoints_gced",
	cGovernorStops:       "governor_stops",
	cGovernorEvicted:     "governor_evicted_states",
	cRejectedTooLarge:    "rejected_too_large",
	cRejectedIngest:      "rejected_ingest",
	cRejectedBomb:        "rejected_bomb",
	cRejectedClientRate:  "rejected_client_rate",
	cRejectedClientShare: "rejected_client_share",
	cRejectedClientQueue: "rejected_client_queue",
	cCacheHits:           "cache_hits",
	cCacheMisses:         "cache_misses",
	cCacheWarmStarts:     "cache_warm_starts",
	cFlightShared:        "flight_shared",
}

// admitClass is the per-class admission counter of each plan-cache class.
var admitClass = [...]counter{
	plancache.ClassCold: cAdmittedCold,
	plancache.ClassWarm: cAdmittedWarm,
	plancache.ClassHit:  cAdmittedHit,
}

// Server is the service. Create with New, wire Handler into an HTTP
// server, call Start, and Drain on shutdown.
type Server struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int64

	queue    *jobQueue
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	inFlight atomic.Int64
	met      [numCounters]atomic.Int64

	// costInUse is the admission budget spent: estimated cost units
	// (milliseconds of predicted service time) held by jobs admitted but
	// not yet settled.
	costInUse atomic.Int64
	// brk isolates repeatedly failing workloads (per model|scale|mode).
	brk *breaker
	// storage is the persistence health state machine; fsys is the
	// filesystem all serve-owned persistence goes through.
	storage *storageHealth
	fsys    fsatomic.FS
	// wlStats memoizes per-(model, scale) workload facts for admission
	// estimates.
	wlMu    sync.Mutex
	wlStats map[string]*wlStats
	// clients is the per-client fairness ledger (rate, fair-share cost,
	// counters); a zero-configured ledger tracks nothing.
	clients *clientLedger

	// runSearch executes one job's search; replaced by tests to control
	// timing without real optimization work.
	runSearch searchFn

	// hitLat/missLat sample per-job service latency by cache outcome for
	// the /metrics percentiles.
	hitLat  latRing
	missLat latRing
}

// New builds a Server; call Start to launch its workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[string]*job),
		wlStats: make(map[string]*wlStats),
	}
	s.queue = newJobQueue(s.cfg.QueueDepth, s.cfg.ClientQueue)
	s.clients = newClientLedger(s.cfg)
	s.stop = make(chan struct{})
	s.brk = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooloff)
	s.storage = newStorageHealth(s.cfg.StorageThreshold, s.cfg.StorageCooloff)
	s.fsys = fsatomic.Or(s.cfg.FS)
	s.runSearch = s.searchJob
	return s
}

// Start launches the worker pool and the stall watchdog, and — when a
// checkpoint directory is configured — re-admits jobs a previous
// incarnation left checkpointed. It returns the number of recovered jobs.
func (s *Server) Start() int {
	recovered := s.recoverCheckpoints()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.StallWindow > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return recovered
}

// Drain stops admission, cancels every in-flight search (each writes its
// final checkpoint on the way out), marks still-queued jobs cancelled, and
// waits for the workers — or for ctx, whichever ends first.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.stop)
		// Closing the queue hands back every queued job — admitted, so each
		// settles cancelled — and refuses every later push: a request still
		// in admission is refused 503 draining, never counted here.
		for _, j := range s.queue.close() {
			s.settle(j, drainedQueued)
		}
		// Running searches are cancelled and settled by their runners. A
		// job a worker popped but has not started sees draining in runJob.
		s.mu.Lock()
		jobs := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			j.interrupt(reasonDrain)
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// OptimizeRequest is the /optimize POST body.
type OptimizeRequest struct {
	// Model names the workload (see internal/models.Names).
	Model string `json:"model"`
	// Graph, when present, submits an untrusted graph document (the
	// graphio file envelope) instead of naming a built-in model. It is
	// decoded and validated by internal/ingest — structural limits, dtype
	// and shape bounds, search-cost preflight — before any search work is
	// priced. Mutually exclusive with Model.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Client declares the caller's identity for per-client fairness
	// (rate limits, fair-share cost, queue occupancy). The X-Magis-Client
	// header is the fallback; empty means the shared anonymous identity.
	Client string `json:"client,omitempty"`
	// Scale is the batch-size scale factor in (0,1] (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Mode is "mem" (minimize memory under a latency limit, the default)
	// or "latency" (minimize latency under a memory limit).
	Mode string `json:"mode,omitempty"`
	// Limit is the constraint: allowed latency overhead for mode "mem"
	// (default 0.10), memory ratio vs baseline for mode "latency".
	Limit float64 `json:"limit,omitempty"`
	// Budget is the search time budget as a Go duration string
	// (default Config.DefaultBudget, capped at Config.MaxBudget).
	Budget string `json:"budget,omitempty"`
	// Deadline is how long the client will wait for the answer, as a Go
	// duration string measured from admission. The queue is
	// earliest-deadline-first; a job whose deadline becomes unmeetable is
	// shed instead of run, and a search truncated by its deadline returns
	// the verified best-so-far plan marked degraded. Empty means no
	// deadline (never shed, never degraded).
	Deadline string `json:"deadline,omitempty"`
	// Workers is the search's parallel evaluation width (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Iterations caps the number of search expansions (0 = budget-bound
	// only). Useful for smoke tests and fixed-work benchmark jobs.
	Iterations int `json:"iterations,omitempty"`
	// Verify numerically verifies the optimized plan (arena-safe
	// execution plus output cross-check against the unoptimized graph)
	// before the job settles; a failed verification fails the job.
	Verify bool `json:"verify,omitempty"`
	// VerifySeed seeds the verification inputs (default 0 stream).
	VerifySeed uint64 `json:"verify_seed,omitempty"`
}

// normalize validates the request and resolves defaults, returning the
// search budget and the client deadline (0 = none) measured from now.
func (r *OptimizeRequest) normalize(cfg Config) (time.Duration, time.Duration, error) {
	if len(r.Graph) > 0 {
		// Direct graph submission: the graph document is the workload.
		if r.Model != "" {
			return 0, 0, fmt.Errorf("request carries both graph and model: pick one")
		}
		if r.Scale != 0 && r.Scale != 1 {
			return 0, 0, fmt.Errorf("invalid scale %v: scale applies to named models only", r.Scale)
		}
		r.Scale = 1
	} else {
		known := false
		for _, n := range models.Names() {
			if strings.EqualFold(r.Model, n) {
				known = true
				break
			}
		}
		if !known {
			return 0, 0, fmt.Errorf("unknown model %q (want %s)", r.Model, strings.Join(models.Names(), "|"))
		}
		if r.Scale == 0 {
			r.Scale = 1
		}
		if r.Scale < 0 || r.Scale > 1 {
			return 0, 0, fmt.Errorf("invalid scale %v: must be in (0,1]", r.Scale)
		}
	}
	switch r.Mode {
	case "":
		r.Mode = "mem"
	case "mem", "latency":
	default:
		return 0, 0, fmt.Errorf("unknown mode %q: want mem or latency", r.Mode)
	}
	if r.Limit == 0 {
		r.Limit = 0.10
	}
	if r.Limit < 0 {
		return 0, 0, fmt.Errorf("invalid limit %v: must be >= 0", r.Limit)
	}
	if r.Workers < 0 {
		return 0, 0, fmt.Errorf("invalid workers %d: must be >= 0", r.Workers)
	}
	// Clamp to the cores actually available: workers is client-supplied,
	// and an absurd value would both oversubscribe the search and drive the
	// per-expansion admission estimate toward zero — a client-controlled
	// bypass of the cost budget and the deadline-feasibility check.
	if max := runtime.GOMAXPROCS(0); r.Workers > max {
		r.Workers = max
	}
	if r.Iterations < 0 {
		return 0, 0, fmt.Errorf("invalid iterations %d: must be >= 0", r.Iterations)
	}
	budget := cfg.DefaultBudget
	if r.Budget != "" {
		d, err := time.ParseDuration(r.Budget)
		if err != nil {
			return 0, 0, fmt.Errorf("invalid budget %q: %v", r.Budget, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("invalid budget %q: must be positive", r.Budget)
		}
		budget = d
	}
	if budget > cfg.MaxBudget {
		budget = cfg.MaxBudget
	}
	var wait time.Duration
	if r.Deadline != "" {
		d, err := time.ParseDuration(r.Deadline)
		if err != nil {
			return 0, 0, fmt.Errorf("invalid deadline %q: %v", r.Deadline, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("invalid deadline %q: must be positive", r.Deadline)
		}
		wait = d
	}
	return budget, wait, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.admit(&admission{w: w, r: r}, admissionGates...)
}

// admission is one /optimize request on its way through the gates: what
// the gates so far decoded and decided, and what the request holds — a
// breaker probe slot, a registered job and its cost hold — that a later
// refusal must give back.
type admission struct {
	w      http.ResponseWriter
	r      *http.Request
	req    OptimizeRequest
	client string
	budget time.Duration
	wait   time.Duration // client deadline from admission (0 = none)
	g      *graph.Graph  // ingested graph of a direct graph submission
	bkey   string
	probe  bool // holds bkey's half-open probe slot
	j      *job
}

// refusal is a gate's verdict against a request: the status and stable
// reason code the client sees, the counter it moves, and a Retry-After
// in seconds (0 = none; retryBacklog = derived from the work still held
// once the request's own hold is returned).
type refusal struct {
	code       int
	reason     string
	counter    counter
	retryAfter int
	msg        string
}

const retryBacklog = -1

func reject(code int, reason string, c counter, format string, args ...any) *refusal {
	return &refusal{code: code, reason: reason, counter: c, msg: fmt.Sprintf(format, args...)}
}

func (rf *refusal) retry(sec int) *refusal {
	rf.retryAfter = sec
	return rf
}

func rejectDraining() *refusal {
	return reject(http.StatusServiceUnavailable, "draining", cRejectedDraining, "draining: not admitting new jobs")
}

// gate is one admission check: nil passes the request on, a refusal ends it.
type gate func(*Server, *admission) *refusal

// admissionGates is the order handleOptimize checks a request in: the
// cheap checks first, then the ones that cost the server work (ingestion,
// pricing), then the ones that spend admission budget and queue slots.
var admissionGates = []gate{
	(*Server).gateDraining,
	(*Server).gateDecode,
	(*Server).gateRate,
	(*Server).gateIngest,
	(*Server).gateBreaker,
	(*Server).gatePrice,
	(*Server).gateDeadline,
	(*Server).gateCost,
	(*Server).gateQueue,
}

// admit runs a request through gates in order. The first refusal is
// written by refuse; a request that passes them all has been queued and
// is answered 202 with its job view.
func (s *Server) admit(a *admission, gates ...gate) {
	for _, g := range gates {
		if rf := g(s, a); rf != nil {
			s.refuse(a, rf)
			return
		}
	}
	j := a.j
	s.met[cAdmitted].Add(1)
	s.met[admitClass[j.class]].Add(1)
	s.clients.note(j.client, clientAdmitted)
	s.cfg.Logf("serve: admitted %s (%s, client %s, budget %v, class %s, est %v)",
		j.id, j.workloadName(), j.client, j.budget, j.class, j.estServe)
	a.w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(a.w, http.StatusAccepted, s.jobView(j))
}

// refuse is the one refusal path: it returns whatever the request holds —
// the cost hold, the job registration, the breaker probe slot — then
// counts and writes the refusal with its machine-readable reason.
func (s *Server) refuse(a *admission, rf *refusal) {
	if a.j != nil {
		s.releaseCost(a.j)
		s.forget(a.j)
	}
	if a.probe {
		s.brk.onAbandon(a.bkey)
	}
	s.met[rf.counter].Add(1)
	if rf.retryAfter == retryBacklog {
		rf.retryAfter = s.retryAfter()
	}
	if rf.retryAfter > 0 {
		a.w.Header().Set("Retry-After", fmt.Sprint(rf.retryAfter))
	}
	writeJSON(a.w, rf.code, map[string]string{"error": rf.msg, "reason": rf.reason})
}

func (s *Server) gateDraining(a *admission) *refusal {
	if s.draining.Load() {
		return rejectDraining()
	}
	return nil
}

// gateDecode reads the untrusted body — bounded before the decoder
// allocates anything, unknown fields rejected so a typo'd request fails
// loudly instead of silently running with defaults — then resolves the
// client identity and the request's defaults.
func (s *Server) gateDecode(a *admission) *refusal {
	dec := json.NewDecoder(http.MaxBytesReader(a.w, a.r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a.req); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			return reject(http.StatusRequestEntityTooLarge, "too-large", cRejectedTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBody)
		case strings.Contains(err.Error(), "unknown field"):
			return reject(http.StatusBadRequest, "unknown-field", cRejectedInvalid, "bad request body: %v", err)
		default:
			return reject(http.StatusBadRequest, "syntax", cRejectedInvalid, "bad request body: %v", err)
		}
	}
	var err error
	if a.client, err = resolveClient(a.req.Client, a.r.Header.Get("X-Magis-Client")); err != nil {
		return reject(http.StatusBadRequest, "client", cRejectedInvalid, "invalid client identity: %v", err)
	}
	if a.budget, a.wait, err = a.req.normalize(s.cfg); err != nil {
		return reject(http.StatusBadRequest, "invalid", cRejectedInvalid, "%v", err)
	}
	return nil
}

// gateRate charges the client's token bucket: the cheapest per-client
// gate, before any pricing or ingestion work runs on the client's behalf.
func (s *Server) gateRate(a *admission) *refusal {
	if ok, after := s.clients.allow(a.client, time.Now()); !ok {
		return reject(http.StatusTooManyRequests, "client-rate", cRejectedClientRate,
			"client %q over its request rate: retry later", a.client).retry(after)
	}
	return nil
}

// gateIngest decodes an untrusted graph document strictly under
// structural limits, then runs the search-cost preflight. Everything here
// is bounded by Config.Ingest, so a hostile document is refused with a
// structured reason before it can cost the server anything.
func (s *Server) gateIngest(a *admission) *refusal {
	if len(a.req.Graph) == 0 {
		return nil
	}
	g, _, err := ingest.Decode(bytes.NewReader(a.req.Graph), s.cfg.Ingest)
	if err == nil {
		err = ingest.Preflight(g, opt.Options{Workers: a.req.Workers}, s.cfg.Ingest)
	}
	if err == nil {
		a.g = g
		return nil
	}
	code, reason, c := http.StatusBadRequest, "ingest", cRejectedIngest
	if ie := ingest.AsError(err); ie != nil {
		code, reason = ie.HTTPStatus(), string(ie.Reason)
		if ie.Reason == ingest.ReasonSearchBomb {
			c = cRejectedBomb
		}
	}
	if code == http.StatusRequestEntityTooLarge {
		c = cRejectedTooLarge
	}
	return reject(code, reason, c, "graph rejected: %v", err)
}

// gateBreaker refuses a workload that keeps failing, so it cannot
// monopolize workers — except the half-open probe, whose slot this
// request then holds until its job settles or a later gate refuses it.
// Graph submissions key the breaker by content hash, so a poison graph
// resubmitted verbatim trips its own breaker.
func (s *Server) gateBreaker(a *admission) *refusal {
	wl := a.req.Model
	if a.g != nil {
		wl = graphWorkloadName(a.g)
	}
	a.bkey = breakerKey(wl, a.req.Scale, a.req.Mode)
	after, open, probe := s.brk.blocked(a.bkey, time.Now())
	if open {
		return reject(http.StatusServiceUnavailable, "breaker", cRejectedBreaker,
			"workload %s is circuit-broken after repeated failures: retry later", a.bkey).retry(after)
	}
	a.probe = probe
	return nil
}

// gatePrice registers the job and prices it (estimateJob).
func (s *Server) gatePrice(a *admission) *refusal {
	j := s.newJob(a.req, a.budget, a.client, a.g)
	a.j = j
	j.probe = a.probe
	if a.wait > 0 {
		j.deadline = j.created.Add(a.wait)
	}
	if err := s.estimateJob(j); err != nil {
		return reject(http.StatusBadRequest, "invalid", cRejectedInvalid, "%v", err)
	}
	return nil
}

// gateDeadline refuses a job doomed on arrival: its deadline cannot be
// met even if a worker were free right now, so it is shed at the door
// before any queue slot is spent.
func (s *Server) gateDeadline(a *admission) *refusal {
	if doomed(a.j, time.Now()) {
		return reject(http.StatusUnprocessableEntity, "deadline", cRejectedDeadline,
			"deadline %v is below the minimum feasible service time %v", a.wait, a.j.minServe)
	}
	return nil
}

// gateCost is resource-aware admission: the job's estimated cost must fit
// both the client's fair share and the global concurrent-cost budget.
// Reserve first, check after — holdCost's serialized adds mean concurrent
// arrivals cannot all read the same pre-reservation total and jointly
// overshoot either budget. The one deliberate exception survives at both
// levels: an otherwise idle server (or idle client) admits one job
// regardless of size, so an oversized request degrades to one-at-a-time
// service instead of permanent rejection.
func (s *Server) gateCost(a *admission) *refusal {
	j := a.j
	tot := s.holdCost(j)
	if share := s.clients.share(); share > 0 && tot.clientHeld > share && tot.clientHeld != j.estUnits {
		s.clients.note(j.client, clientRejShare)
		return reject(http.StatusTooManyRequests, "client-share", cRejectedClientShare,
			"client %q over its fair share (%dms held + %dms requested > %dms): retry later",
			j.client, tot.clientHeld-j.estUnits, j.estUnits, share).retry(retryBacklog)
	}
	if budget := costUnits(s.cfg.AdmitBudget); tot.total > budget && tot.total != j.estUnits {
		return reject(http.StatusTooManyRequests, "budget", cRejectedCost,
			"admission budget exhausted (%dms held + %dms requested > %dms): retry later",
			tot.total-j.estUnits, j.estUnits, budget).retry(retryBacklog)
	}
	return nil
}

// gateQueue queues the job without blocking: a full queue sheds (expired
// first, then the cheapest laxer victim for deadline-urgent work) or
// refuses before any search starts, so overload never builds an unbounded
// backlog. Once queued, a worker may settle the job at any moment. A
// per-client occupancy refusal is the client's own doing and evicts
// nobody; a closed queue means Drain got there first.
func (s *Server) gateQueue(a *admission) *refusal {
	switch s.admitQueued(a.j) {
	case pushClientFull:
		s.clients.note(a.client, clientRejQueue)
		return reject(http.StatusTooManyRequests, "client-queue", cRejectedClientQueue,
			"client %q holds its full queue allotment (%d): retry later", a.client, s.cfg.ClientQueue).retry(retryBacklog)
	case pushFull:
		return reject(http.StatusTooManyRequests, "queue-full", cRejectedFull,
			"queue full (%d queued): retry later", s.cfg.QueueDepth).retry(retryBacklog)
	case pushClosed:
		return rejectDraining()
	}
	return nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j))
}

// handleHealthz reports liveness plus the load picture an orchestrator
// needs for readiness decisions: queue occupancy and in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":         status,
		"queue_depth":    s.queue.Len(),
		"queue_capacity": s.queue.Cap(),
		"in_flight":      s.inFlight.Load(),
		"jobs":           total,
		"cost_in_use_ms": s.costInUse.Load(),
		"cost_budget_ms": costUnits(s.cfg.AdmitBudget),
		"breaker_open":   s.brk.openCount(),
		"storage":        s.storage.current(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"in_flight":      s.inFlight.Load(),
		"queue_depth":    s.queue.Len(),
		"breaker_open":   s.brk.openCount(),
		"cost_in_use_ms": s.costInUse.Load(),
		"cost_budget_ms": costUnits(s.cfg.AdmitBudget),
		"storage_state":  s.storage.current(),
	}
	n := cCacheHits
	if s.cfg.Cache != nil {
		n = numCounters
		out["cache"] = s.cfg.Cache.Stats()
		out["cache_hit_latency_sec"] = s.hitLat.percentiles()
		out["cache_miss_latency_sec"] = s.missLat.percentiles()
	}
	for c := counter(0); c < n; c++ {
		out[counterNames[c]] = s.met[c].Load()
	}
	if s.clients.enabled() {
		out["clients"] = s.clients.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
