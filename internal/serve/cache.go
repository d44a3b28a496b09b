package serve

// The plan-cache path of the service. The flow per fresh (non-resume) job:
//
//	exact hit   -> answer from the verified entry, no search at all
//	miss        -> single-flight: the first request leads a real search,
//	               concurrent identical requests wait and share its result
//	near miss   -> the leader's search warm-starts from the cached plan
//	               (full replay when only the budget differed, fission-only
//	               replay across batch sizes)
//	completion  -> the result is offered back to the cache, which admits it
//	               only after re-verifying the plan numerically
//
// Every degradation is toward a plain cold search: a corrupt entry, a
// collision, a failed replay, or an aborted leader never surfaces as a
// wrong answer, only as more work.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"magis/internal/fsatomic"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
)

// errFlightAborted is what waiters observe when a leader unwound (panic,
// process drain) without publishing a result.
var errFlightAborted = errors.New("serve: in-flight search aborted before publishing a result")

// cachedSearch is searchJob's fresh-job path when a plan cache is
// configured.
func (s *Server) cachedSearch(ctx context.Context, j *job, w *models.Workload, base *opt.State, o opt.Options) (*opt.Result, error) {
	start := time.Now()
	fp := plancache.FingerprintFor(s.cfg.Model, o)

	if hit, ok := s.cfg.Cache.Get(w.G, fp); ok {
		res, err := s.resultFromHit(j, base, hit)
		if err == nil {
			s.met[cCacheHits].Add(1)
			s.hitLat.add(time.Since(start).Seconds())
			s.cfg.Logf("serve: %s served from cache (%s)", j.id, hit.Key)
			return res, nil
		}
		// A verified entry that fails to replay is as good as absent.
		s.cfg.Logf("serve: %s: cached plan %s failed to replay (%v); searching", j.id, hit.Key, err)
	}
	s.met[cCacheMisses].Add(1)

	key := s.cfg.Cache.Key(w.G, fp)
	f, leader := s.cfg.Cache.Join(key)
	if !leader {
		s.met[cFlightShared].Add(1)
		if res, ok, err := s.awaitFlight(ctx, j, f); ok {
			j.setCacheOutcome("shared")
			if err != nil && res == nil {
				// The waiter's own deadline fired mid-wait. It holds no
				// best-so-far of its own, but the baseline is servable — hand
				// it to the fallback ladder so a deadline-limited job can
				// settle degraded (TierBaseline) instead of failing outright.
				res = &opt.Result{Baseline: base, Stopped: opt.StopCancelled}
			}
			return res, err
		}
		// The leader aborted without a result; degrade to an independent
		// search rather than failing this job for another's death.
		s.cfg.Logf("serve: %s: shared search aborted; running independently", j.id)
		res, err := s.seededSearch(ctx, j, w, fp, o)
		if err == nil {
			s.admitPlan(j, w, fp, res)
		}
		return res, err
	}

	// Leader: publish whatever happens — even a panic unwinding through
	// here — so waiters never hang on a dead flight.
	res, err := (*opt.Result)(nil), errFlightAborted
	defer func() { f.Finish(res, err) }()
	res, err = s.seededSearch(ctx, j, w, fp, o)
	if err == nil {
		s.admitPlan(j, w, fp, res)
		s.missLat.add(time.Since(start).Seconds())
	}
	return res, err
}

// resultFromHit turns a cache hit into a finished search result: the
// recorded plan restored, carrying the metrics evaluated when it was
// admitted. The entry passed numeric verification at Put time and its
// bytes are checksummed on every read, so the hit is served without
// re-verification.
func (s *Server) resultFromHit(j *job, base *opt.State, hit *plancache.Hit) (*opt.Result, error) {
	st, err := hit.Plan.Seed()
	if err != nil {
		return nil, err
	}
	st.PeakMem = hit.PeakMem
	st.Latency = hit.Latency
	j.setCacheOutcome("hit")
	j.mu.Lock()
	j.verified = true
	j.mu.Unlock()
	return &opt.Result{Best: st, Baseline: base, Stopped: opt.StopConverged}, nil
}

// seededSearch runs the real search, warm-started from any near-miss
// cache entries: an entry for the identical graph (different budget)
// replays in full, a same-topology entry (different batch size) replays
// its fission state only. Seed replay is best-effort — failures log and
// the search runs cold.
func (s *Server) seededSearch(ctx context.Context, j *job, w *models.Workload, fp plancache.Fingerprint, o opt.Options) (*opt.Result, error) {
	var seeds []*opt.State
	for _, nh := range s.cfg.Cache.Near(w.G, fp) {
		var (
			st  *opt.State
			err error
		)
		if nh.SameGraph {
			st, err = nh.Plan.Seed()
		} else {
			st, err = nh.Plan.SeedFor(w.G)
		}
		if err != nil {
			s.cfg.Logf("serve: %s: warm seed %s: %v", j.id, nh.Key, err)
			continue
		}
		seeds = append(seeds, st)
	}
	if len(seeds) > 0 {
		s.met[cCacheWarmStarts].Add(1)
		j.setCacheOutcome("warm")
	}
	res, err := opt.OptimizeSeeded(ctx, w.G, s.cfg.Model, o, seeds...)
	if err == nil && j.req.Verify {
		err = s.verifyResult(j, w.G, res)
	}
	return res, err
}

// admitPlan offers a finished search's best plan to the cache. Admission
// is gated: only uninterrupted, completed results are offered, and the
// cache re-verifies the plan before persisting. A refusal (failed
// verification, full disk) degrades to an uncached success — but a
// storage refusal also counts against persistence health: transient
// faults (fd exhaustion) get one immediate retry, persistent ones
// (disk full) go straight to the health machine.
func (s *Server) admitPlan(j *job, w *models.Workload, fp plancache.Fingerprint, res *opt.Result) {
	if res == nil || res.Best == nil || j.interruptedReason() != reasonNone {
		return
	}
	err := s.cfg.Cache.Put(w.G, fp, res.Best)
	if err != nil && errors.Is(err, plancache.ErrStorage) && fsatomic.Transient(err) {
		err = s.cfg.Cache.Put(w.G, fp, res.Best)
	}
	switch {
	case err == nil:
		s.storage.succeed()
	case errors.Is(err, plancache.ErrStorage):
		s.noteStorageFault("cache put", err)
	default:
		s.cfg.Logf("serve: %s: cache admission: %v", j.id, err)
	}
}

// awaitFlight waits for another request's in-flight search, touching the
// job's liveness signal so the watchdog does not mistake the wait for a
// stall. ok reports a usable outcome: a published result, or this job's
// own cancellation. A leader that aborted without publishing returns
// ok=false and the caller searches independently.
func (s *Server) awaitFlight(ctx context.Context, j *job, f *plancache.Flight) (*opt.Result, bool, error) {
	t := time.NewTicker(s.cfg.StallPoll)
	defer t.Stop()
	for {
		select {
		case <-f.Done():
			v, err := f.Result()
			if res, k := v.(*opt.Result); k && err == nil && res != nil {
				return res, true, nil
			}
			return nil, false, err
		case <-t.C:
			j.touch()
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
}

// latRing is a bounded reservoir of recent latency samples; /metrics
// reports its percentiles. Fixed capacity keeps a long-lived server's
// memory flat while tracking the current regime.
type latRing struct {
	mu  sync.Mutex
	buf [256]float64
	n   int // samples stored (<= len(buf))
	idx int // next write position
}

func (r *latRing) add(sec float64) {
	r.mu.Lock()
	r.buf[r.idx] = sec
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// percentiles reports p50/p90/p99 over the retained samples (zeros when
// empty, so the metrics shape is stable).
func (r *latRing) percentiles() map[string]float64 {
	r.mu.Lock()
	samples := append([]float64(nil), r.buf[:r.n]...)
	r.mu.Unlock()
	out := map[string]float64{"count": float64(len(samples)), "p50": 0, "p90": 0, "p99": 0}
	if len(samples) == 0 {
		return out
	}
	sort.Float64s(samples)
	at := func(p float64) float64 {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	out["p50"] = at(0.50)
	out["p90"] = at(0.90)
	out["p99"] = at(0.99)
	return out
}
