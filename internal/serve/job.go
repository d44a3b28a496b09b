package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"magis/internal/fsatomic"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
	"magis/internal/robust"
	"magis/internal/verify"
)

// searchFn runs one job's search. The Server's default is searchJob; tests
// substitute their own to control timing without real optimization work.
type searchFn func(ctx context.Context, j *job) (*opt.Result, error)

// Job states. A cancelled job whose checkpoint survived is resumable: a
// restarted server re-admits it from the snapshot.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
	// stateShed marks a job removed from the queue without running: its
	// deadline became unmeetable, or it was evicted to make room for more
	// urgent work under pressure.
	stateShed = "shed"
)

// interruptReason distinguishes why a job's context was cancelled, which
// decides its post-mortem: drain leaves a resumable checkpoint behind, a
// first stall re-admits the job to resume immediately.
type interruptReason int

const (
	reasonNone interruptReason = iota
	reasonDrain
	reasonStall
)

func (r interruptReason) String() string {
	return [...]string{"none", "draining", "stalled"}[r]
}

type job struct {
	id     string
	req    OptimizeRequest
	budget time.Duration
	// client is the admission identity this job's cost is charged to
	// (anonClient when the request declared none); immutable after
	// admission.
	client string
	// g is the ingested graph for direct graph submissions (nil for
	// built-in model jobs); wlName is the workload identity used for
	// logging, breaker keys, and checkpoint labels — the model name, or
	// graph-<hash> for uploads. Both immutable after admission.
	g      *graph.Graph
	wlName string
	// deadline is the client's absolute response deadline (zero = none);
	// immutable after admission, it orders the EDF queue and drives
	// shedding and degraded responses.
	deadline time.Time
	// seq is the queue admission sequence (set by jobQueue.push; EDF
	// tiebreak).
	seq int64
	// estServe/estUnits are the admission estimate: predicted service time
	// and its cost in budget units; minServe is the feasibility floor (the
	// weakest acceptable response — hit replay or degraded best-so-far);
	// class is the plan-cache classification the estimate was based on.
	// All immutable after estimateJob.
	estServe time.Duration
	estUnits int64
	minServe time.Duration
	class    plancache.Class
	// probe marks the job admitted as its workload's half-open breaker
	// probe (immutable after admission): if it settles without a verdict —
	// shed, cancelled, or truncated by the client's deadline — settle
	// releases the half-open slot, or the breaker would wedge open forever.
	probe bool

	mu sync.Mutex
	// costHeld tracks whether estUnits is currently counted against the
	// server's admission budget (released exactly once on settle).
	costHeld bool
	// deadlineLimited records that the client deadline — not the search's
	// own budget — bounded the run; only then is a deadline-stopped result
	// a degraded response.
	deadlineLimited bool
	// degradedStorage records that persistence was unavailable when this
	// job ran: it searched uncached and uncheckpointed, and its summary
	// carries the degraded_storage label.
	degradedStorage bool
	// resumePath, when non-empty, tells the runner to continue from an
	// existing snapshot instead of starting a fresh search.
	resumePath   string
	resumes      int
	state        string
	created      time.Time
	started      time.Time
	finished     time.Time
	cancel       context.CancelFunc
	interrupted  interruptReason
	expansions   int
	lastProgress time.Time
	err          string
	verified     bool
	cacheOutcome string
	summary      *jobSummary
}

// jobSummary is the result payload of a finished job.
type jobSummary struct {
	PeakMemBytes int64   `json:"peak_mem_bytes"`
	LatencySec   float64 `json:"latency_sec"`
	Iterations   int     `json:"iterations"`
	Stopped      string  `json:"stopped"`
	// Verified reports that the plan passed numeric verification (only
	// present when the request opted in).
	Verified bool `json:"verified,omitempty"`
	// Cache reports how the plan cache served this job: "hit" (answered
	// from a verified entry, no search), "warm" (search seeded from a
	// near miss), or "shared" (joined another request's in-flight
	// search). Empty means a plain search.
	Cache string `json:"cache,omitempty"`
	// Degraded marks an anytime response: the client deadline truncated
	// the search and this is the strongest servable tier, not a converged
	// plan. DegradedTier names the fallback rung served (see
	// internal/robust: "best-so-far" or "baseline").
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedTier string `json:"degraded_tier,omitempty"`
	// DegradedStorage marks a job that ran while persistence was
	// unhealthy: the answer is a full-fidelity search result, but it was
	// neither cached nor checkpointed (no crash-resume for this run).
	DegradedStorage bool `json:"degraded_storage,omitempty"`
}

// jobView is the JSON shape of /jobs/{id}.
type jobView struct {
	ID         string      `json:"id"`
	State      string      `json:"state"`
	Model      string      `json:"model"`
	Client     string      `json:"client,omitempty"`
	Mode       string      `json:"mode,omitempty"`
	BudgetSec  float64     `json:"budget_sec"`
	Created    time.Time   `json:"created"`
	Started    *time.Time  `json:"started,omitempty"`
	Finished   *time.Time  `json:"finished,omitempty"`
	Expansions int         `json:"expansions"`
	Resumes    int         `json:"resumes,omitempty"`
	Resumable  bool        `json:"resumable,omitempty"`
	Error      string      `json:"error,omitempty"`
	Result     *jobSummary `json:"result,omitempty"`
}

// progress records one completed expansion; the watchdog reads
// lastProgress to tell a working search from a stalled one.
func (j *job) progress(completed int) {
	j.mu.Lock()
	j.expansions = completed
	j.lastProgress = time.Now()
	j.mu.Unlock()
}

// touch refreshes the liveness signal without claiming an expansion; jobs
// waiting on another request's in-flight search use it so the watchdog
// does not read the wait as a stall.
func (j *job) touch() {
	j.mu.Lock()
	j.lastProgress = time.Now()
	j.mu.Unlock()
}

func (j *job) interruptedReason() interruptReason {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.interrupted
}

func (j *job) setCacheOutcome(o string) {
	j.mu.Lock()
	j.cacheOutcome = o
	j.mu.Unlock()
}

// interrupt cancels a running job's search for the given reason; its
// runner settles the job when the search returns. A job that is not
// running is left alone: a queued job is settled by whoever takes it off
// the queue.
func (j *job) interrupt(r interruptReason) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == stateRunning {
		j.interrupted = r
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// workloadName is the job's workload identity: the model name for
// built-in jobs, graph-<hash> for direct graph submissions.
func (j *job) workloadName() string {
	if j.wlName != "" {
		return j.wlName
	}
	return j.req.Model
}

// graphWorkloadName derives the workload identity of an uploaded graph
// from its structural hash, so identical uploads share a breaker and a
// log identity without trusting any client-supplied name.
func graphWorkloadName(g *graph.Graph) string {
	return fmt.Sprintf("graph-%016x", g.WLHash())
}

func (s *Server) newJob(req OptimizeRequest, budget time.Duration, client string, g *graph.Graph) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		req:     req,
		budget:  budget,
		client:  client,
		g:       g,
		wlName:  req.Model,
		state:   stateQueued,
		created: time.Now(),
	}
	if g != nil {
		j.wlName = graphWorkloadName(g)
	}
	s.jobs[j.id] = j
	return j
}

// forget unregisters a job that was never admitted (queue full).
func (s *Server) forget(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

func (s *Server) jobView(j *job) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:         j.id,
		State:      j.state,
		Model:      j.workloadName(),
		Client:     j.client,
		Mode:       j.req.Mode,
		BudgetSec:  j.budget.Seconds(),
		Created:    j.created,
		Expansions: j.expansions,
		Resumes:    j.resumes,
		Error:      j.err,
		Result:     j.summary,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state == stateCancelled {
		v.Resumable = j.resumePath != "" || s.checkpointExists(j)
	}
	return v
}

// worker pops jobs in deadline order until the queue closes (drain). A
// popped job whose deadline became unmeetable while it waited is shed
// here — the queue never hands doomed work to a search.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if doomed(j, time.Now()) {
			s.shedJob(j, shedExpired)
			continue
		}
		s.runJob(j)
	}
}

// runJob executes one job under panic isolation with a deadline derived
// from its requested budget (the search's own TimeBudget plus slack for
// baseline evaluation and checkpoint writes), tightened to the client
// deadline when one is set.
func (s *Server) runJob(j *job) {
	start := time.Now()
	natural := start.Add(j.budget + j.budget/2 + 5*time.Second)
	deadline := natural
	// deadlineLimited is recorded only when the client deadline undercuts
	// the search's own TimeBudget: then — and only then — a
	// deadline-stopped result means the client truncated the search, not
	// that the budget ran its course.
	deadlineLimited := false
	if !j.deadline.IsZero() && j.deadline.Before(natural) {
		deadline = j.deadline
		deadlineLimited = j.deadline.Before(start.Add(j.budget))
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	j.mu.Lock()
	if j.state != stateQueued || s.draining.Load() {
		// Popped just before Drain closed the queue: Drain cancels only
		// running searches, so the job settles here as a drained queued job.
		j.mu.Unlock()
		s.settle(j, drainedQueued)
		return
	}
	j.state = stateRunning
	j.started = start
	j.lastProgress = j.started
	j.cancel = cancel
	j.deadlineLimited = deadlineLimited
	j.mu.Unlock()

	// Storage gate: while persistence is degraded the job still runs — it
	// just skips the cache and checkpointing, and says so in its summary.
	// The gate sits here (not inside searchJob) so every searchFn,
	// including test doubles, observes the same decision.
	if !s.storageAllowed() {
		j.mu.Lock()
		j.degradedStorage = true
		j.mu.Unlock()
		s.met[cStorageDegradedJobs].Add(1)
		s.cfg.Logf("serve: %s running with degraded storage (uncached, uncheckpointed)", j.id)
	}

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// opt.Guard converts a panicking search into an error: the job fails,
	// the service survives.
	var res *opt.Result
	err := opt.Guard("serve", "job "+j.id, func() error {
		var serr error
		res, serr = s.runSearch(ctx, j)
		return serr
	})
	s.finishJob(j, res, err)
}

// verdict is what a settled job tells its workload's circuit breaker.
type verdict int

const (
	// noVerdict: the job settled without judging its workload (shed,
	// drained, stalled, or cut short by the client's own clock), so a
	// probe hands its half-open slot back and the breaker cannot wedge.
	noVerdict verdict = iota
	verdictSuccess
	verdictFailure
)

// outcome is how a job settles: its terminal state, the counter that
// state moves, the breaker verdict, and the error or result it reports.
type outcome struct {
	state   string
	counter counter
	verdict verdict
	err     string
	summary *jobSummary
}

// The outcomes of a queued job settled without running.
var (
	shedExpired   = outcome{state: stateShed, counter: cShedExpired, err: "shed: deadline cannot be met"}
	shedEvicted   = outcome{state: stateShed, counter: cShedEvicted, err: "shed: evicted under pressure for more urgent work"}
	drainedQueued = cancelled("cancelled before start: " + reasonDrain.String())
)

func cancelled(msg string) outcome {
	return outcome{state: stateCancelled, counter: cCancelled, err: msg}
}

// maxTerminalJobs bounds the settled jobs the job table keeps for
// GET /jobs/{id}: past it the oldest-settled is dropped and answers 404,
// as an unknown id does. Queued and running jobs are never dropped. A
// client must read a settled job before this many more settle.
const maxTerminalJobs = 4096

// settle is the only way a job becomes terminal. It acts once: a job
// already terminal is left alone and settle reports false. Otherwise it
// records the outcome and finish time, drops the request payload the job
// no longer needs (and, past maxTerminalJobs, the oldest settled job),
// bumps the outcome's counter, hands the breaker its verdict, and
// returns the admission cost hold — so every admitted job lands in
// exactly one terminal counter and gives back everything it held.
func (s *Server) settle(j *job, o outcome) bool {
	j.mu.Lock()
	if j.state != stateQueued && j.state != stateRunning {
		j.mu.Unlock()
		return false
	}
	j.state = o.state
	j.finished = time.Now()
	j.err = o.err
	j.summary = o.summary
	j.req.Graph = nil
	j.g = nil
	j.mu.Unlock()

	s.mu.Lock()
	s.settled = append(s.settled, j.id)
	if len(s.settled) > maxTerminalJobs {
		delete(s.jobs, s.settled[0])
		s.settled = s.settled[1:]
	}
	s.mu.Unlock()

	s.met[o.counter].Add(1)
	if o.summary != nil && o.summary.Degraded {
		s.met[cDegraded].Add(1)
	}
	bkey := breakerKey(j.workloadName(), j.req.Scale, j.req.Mode)
	switch o.verdict {
	case verdictSuccess:
		s.brk.succeed(bkey)
	case verdictFailure:
		if s.brk.fail(bkey, time.Now()) {
			s.met[cBreakerTrips].Add(1)
			s.cfg.Logf("serve: breaker opened for %s", bkey)
		}
	default:
		// Only the job admitted as the probe owns the half-open slot; an
		// abandoned non-probe job of the same workload must not release
		// a slot a different in-flight probe still holds.
		if j.probe {
			s.brk.abandon(bkey)
		}
	}
	s.releaseCost(j)
	return true
}

// finishJob settles a job whose search returned, and decides whether an
// interrupted one comes back: a first stall with a checkpoint is
// re-admitted to resume (not terminal: the job keeps its cost hold, the
// work is still in the building); drain leaves the checkpoint for the
// next incarnation of the server.
func (s *Server) finishJob(j *job, res *opt.Result, err error) {
	j.mu.Lock()
	reason, resumes := j.interrupted, j.resumes
	j.cancel = nil
	j.mu.Unlock()
	s.noteSearchTelemetry(res)

	switch {
	case err != nil:
		// A deadline or cancellation is the client's clock, not the
		// workload's: a tight-deadline client on a healthy slow workload
		// starts no failure streak. Genuine search/verify failures count
		// even when a fallback tier limps the job home: a workload that
		// only ever degrades must still trip.
		v := verdictFailure
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			v = noVerdict
		}
		// A deadline-limited search that errored (typically: best-so-far
		// failed verification after truncation) may still hold a servable
		// tier; degradedFallback re-verifies before letting it out.
		if any := s.degradedFallback(j, res, err); any != nil {
			s.settle(j, j.done(res, any, v))
			s.cfg.Logf("serve: %s degraded to %s after error: %v", j.id, any.Tier, err)
			return
		}
		s.settle(j, outcome{state: stateFailed, counter: cFailed, verdict: v, err: err.Error()})
		s.cfg.Logf("serve: %s failed: %v", j.id, err)

	case reason != reasonNone:
		msg := "cancelled: " + reason.String()
		if reason == reasonStall {
			s.met[cStalled].Add(1)
			if resumes < 1 && s.checkpointExists(j) {
				if s.requeueResume(j) {
					return
				}
				msg = "stalled; could not re-admit for resume"
			}
		}
		s.settle(j, cancelled(msg))
		if s.checkpointExists(j) {
			s.cfg.Logf("serve: %s cancelled; checkpoint retained for resume", j.id)
		} else {
			s.cfg.Logf("serve: %s cancelled", j.id)
		}

	default:
		any := s.degradedFallback(j, res, nil)
		s.settle(j, j.done(res, any, verdictSuccess))
		s.removeCheckpoint(j)
		if any != nil {
			s.cfg.Logf("serve: %s done (degraded: %s)", j.id, any.Tier)
		} else {
			s.cfg.Logf("serve: %s done", j.id)
		}
	}
}

// done is the outcome of a job that settles with an answer: the search's
// best plan, or — when any is non-nil — a degraded anytime summary: the
// served plan is a fallback tier, labeled as such, never passed off as a
// converged result.
func (j *job) done(res *opt.Result, any *robust.Anytime, v verdict) outcome {
	o := outcome{state: stateDone, counter: cCompleted, verdict: v}
	if any == nil && (res == nil || res.Best == nil) {
		return o
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sum := &jobSummary{Verified: j.verified, Cache: j.cacheOutcome, DegradedStorage: j.degradedStorage}
	if res != nil {
		sum.Iterations = res.Stats.Iterations
		sum.Stopped = res.Stopped.String()
	}
	switch {
	case any != nil:
		sum.Verified, sum.Degraded, sum.DegradedTier = any.Verified, true, any.Tier
		if res == nil || res.Stopped == opt.StopUnknown {
			sum.Stopped = "deadline"
		}
		if any.State != nil {
			sum.PeakMemBytes, sum.LatencySec = any.State.PeakMem, any.State.Latency
		}
	default:
		sum.PeakMemBytes, sum.LatencySec = res.Best.PeakMem, res.Best.Latency
		if j.cacheOutcome == "hit" {
			sum.Stopped = "cache-hit"
		}
	}
	o.summary = sum
	return o
}

// requeueResume re-admits a stalled job to continue from its checkpoint.
// Admission stays non-blocking: a full or closed (draining) queue refuses,
// and the job settles as cancelled-but-resumable instead.
func (s *Server) requeueResume(j *job) bool {
	j.mu.Lock()
	j.state = stateQueued
	j.resumePath = s.checkpointPath(j.id)
	j.resumes++
	j.interrupted = reasonNone
	j.err = ""
	j.mu.Unlock()
	if s.queue.push(j) != pushOK {
		return false
	}
	s.met[cResumed].Add(1)
	s.cfg.Logf("serve: %s stalled; resuming from checkpoint", j.id)
	return true
}

// searchJob is the production searchFn: fresh jobs build their workload and
// optimize with per-job checkpointing; interrupted jobs resume from their
// snapshot (opt.Resume restores options, elapsed budget, and search state).
// Resumed jobs run before any cache involvement, so the kill-resume
// determinism guarantee is independent of cache state.
func (s *Server) searchJob(ctx context.Context, j *job) (*opt.Result, error) {
	// Chaos-soak fault injection: the configured poison model fails every
	// attempt, exercising the circuit breaker path end to end.
	if s.cfg.FailModel != "" && strings.EqualFold(j.req.Model, s.cfg.FailModel) {
		return nil, fmt.Errorf("injected failure: model %q is poisoned (FailModel)", j.req.Model)
	}
	onExp := func(completed int) {
		j.progress(completed)
		s.met[cExpansions].Add(1)
	}
	if path := j.resumeFrom(); path != "" {
		res, err := opt.Resume(ctx, path, s.cfg.Model, func(o *opt.Options) {
			o.OnExpansion = onExp
			// Checkpoint.FS is runtime wiring, not snapshot state: a
			// resumed run writes through the server's filesystem again.
			o.Checkpoint.FS = s.cfg.FS
		})
		if err == nil && j.req.Verify {
			// A snapshot carries no input graph; verification degrades to
			// the arena-safety self-check.
			err = s.verifyResult(j, nil, res)
		}
		return res, err
	}

	// Direct graph submissions carry their (already ingested and
	// validated) graph; built-in jobs construct their workload by name.
	// Both run the same search, cache, and verification machinery — the
	// fidelity pin in hostile_test.go holds the two paths bit-identical.
	var w *models.Workload
	if j.g != nil {
		w = &models.Workload{Name: j.workloadName(), G: j.g}
	} else {
		var err error
		w, err = models.ByName(j.req.Model, j.req.Scale)
		if err != nil {
			return nil, err
		}
	}
	base := opt.Baseline(w.G, s.cfg.Model)
	// searchOptions is shared with the admission estimator so the
	// fingerprint probed at admission matches the one used here.
	o := s.searchOptions(j, base.PeakMem, base.Latency)
	o.OnExpansion = onExp
	// A storage-degraded job skips every persistence surface: no snapshot
	// writes to a sick disk, no cache reads that would dirty the health
	// verdict mid-probe. The search itself is unchanged.
	useStorage := !j.storageDegraded()
	if s.cfg.CheckpointDir != "" && useStorage {
		o.Checkpoint = opt.Checkpoint{
			Path:   s.checkpointPath(j.id),
			EveryN: s.cfg.CheckpointEveryN,
			Label:  j.workloadName(),
			FS:     s.cfg.FS,
		}
	}
	if s.cfg.Cache != nil && useStorage {
		return s.cachedSearch(ctx, j, w, base, o)
	}
	res, err := opt.OptimizeCtx(ctx, w.G, s.cfg.Model, o)
	if err == nil && j.req.Verify {
		err = s.verifyResult(j, w.G, res)
	}
	return res, err
}

// verifyResult is the opt-in verification gate: before a job settles as
// done, its best plan is materialized, executed against the memory
// plan's arena offsets, and cross-checked against the input graph (see
// internal/verify). A dirty report fails the job — a plan that corrupts
// memory or changes the computed function must not be returned to a
// client as a success.
func (s *Server) verifyResult(j *job, input *graph.Graph, res *opt.Result) error {
	if res == nil || res.Best == nil {
		return nil
	}
	mg, err := res.Best.FT.Materialize(res.Best.G)
	if err != nil {
		return fmt.Errorf("verify: materialize: %w", err)
	}
	rep := verify.Check(input, mg, j.req.VerifySeed)
	if !rep.OK() {
		return fmt.Errorf("verification failed: %s", strings.TrimSpace(rep.String()))
	}
	j.mu.Lock()
	j.verified = true
	j.mu.Unlock()
	return nil
}

func (j *job) resumeFrom() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumePath
}

func (j *job) storageDegraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degradedStorage
}

// isCheckpointName reports whether a checkpoint directory entry is a
// job's checkpoint.
func isCheckpointName(name string) bool {
	return strings.HasPrefix(name, "job-") && strings.HasSuffix(name, ".ckpt")
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".ckpt")
}

func (s *Server) checkpointExists(j *job) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	_, err := s.fsys.Stat(s.checkpointPath(j.id))
	return err == nil
}

func (s *Server) removeCheckpoint(j *job) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := s.fsys.Remove(s.checkpointPath(j.id)); err != nil && !os.IsNotExist(err) {
		s.cfg.Logf("serve: removing checkpoint of %s: %v", j.id, err)
	}
}

// recoverCheckpoints re-admits jobs a previous incarnation left
// checkpointed (drained or crashed mid-search). Unreadable snapshots are
// quarantined — moved aside with a log line, never deleted — so recovery
// proceeds with the healthy ones and the operator decides the rest.
// Before any re-admission, recovery sweeps write debris (orphaned temp
// files from a crash mid-write) and garbage-collects orphans past the
// age/count retention bounds, so a crash-looping deployment cannot grow
// the directory without limit.
func (s *Server) recoverCheckpoints() int {
	if s.cfg.CheckpointDir == "" {
		return 0
	}
	if err := s.fsys.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		s.cfg.Logf("serve: checkpoint dir: %v", err)
		return 0
	}
	if n := fsatomic.SweepTemps(s.fsys, s.cfg.CheckpointDir); n > 0 {
		s.cfg.Logf("serve: swept %d orphaned temp file(s) from %s", n, s.cfg.CheckpointDir)
	}
	// Orphans are deleted, not quarantined: they are healthy but
	// abandoned, so there is nothing for an operator to inspect.
	gced, err := fsatomic.Prune(s.fsys, s.cfg.CheckpointDir, isCheckpointName, s.cfg.CheckpointGCMax, checkpointGCAge)
	if err != nil {
		s.cfg.Logf("serve: checkpoint gc: %v", err)
	}
	if len(gced) > 0 {
		s.met[cCkptGCed].Add(int64(len(gced)))
		s.cfg.Logf("serve: gc'd %d orphaned checkpoint(s): %s", len(gced), strings.Join(gced, " "))
	}
	entries, err := s.fsys.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		s.cfg.Logf("serve: checkpoint dir: %v", err)
		return 0
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isCheckpointName(e.Name()) {
			names = append(names, e.Name())
		}
	}

	n := 0
	for _, name := range names {
		id := strings.TrimSuffix(name, ".ckpt")
		path := filepath.Join(s.cfg.CheckpointDir, name)
		info, err := opt.ReadCheckpointInfo(path)
		if err != nil {
			// Unlike the plan cache, a checkpoint that cannot be moved
			// aside stays where it is: it is never deleted.
			if dst, qerr := fsatomic.Quarantine(s.fsys, s.cfg.CheckpointDir, name); qerr != nil {
				s.cfg.Logf("serve: quarantining checkpoint %s: %v (cause: %v)", name, qerr, err)
			} else {
				s.met[cCkptQuarantined].Add(1)
				s.cfg.Logf("serve: quarantined unreadable checkpoint %s -> %s: %v", name, dst, err)
			}
			continue
		}
		s.mu.Lock()
		// Keep fresh job IDs clear of recovered ones.
		var seq int64
		if _, serr := fmt.Sscanf(id, "job-%d", &seq); serr == nil && seq > s.nextID {
			s.nextID = seq
		}
		if _, dup := s.jobs[id]; dup {
			s.mu.Unlock()
			continue
		}
		j := &job{
			id:         id,
			req:        OptimizeRequest{Model: info.Label},
			budget:     s.cfg.DefaultBudget,
			client:     anonClient,
			resumePath: path,
			resumes:    1,
			state:      stateQueued,
			created:    time.Now(),
			// Recovered snapshots carry no admission estimate; price them
			// at the default budget so they still count against the
			// concurrent-cost ledger.
			estServe: s.cfg.DefaultBudget,
			estUnits: costUnits(s.cfg.DefaultBudget),
		}
		s.jobs[id] = j
		s.mu.Unlock()
		s.holdCost(j)
		if s.queue.push(j) == pushOK {
			s.met[cAdmitted].Add(1)
			s.met[cResumed].Add(1)
			s.cfg.Logf("serve: recovered %s (%s, %d expansions so far)", id, info.Label, info.Iterations)
			n++
		} else {
			// Queue smaller than the backlog: leave the snapshot for the
			// next restart rather than over-admitting.
			s.releaseCost(j)
			s.forget(j)
			s.cfg.Logf("serve: queue full; %s stays checkpointed on disk", id)
		}
	}
	return n
}
