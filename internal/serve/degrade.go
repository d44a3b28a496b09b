package serve

// Degraded anytime responses: a search truncated by a client deadline still
// holds a best-so-far plan (the search is anytime), so instead of reporting
// a timeout the job settles done with the strongest servable tier from the
// internal/robust fallback ladder, explicitly marked degraded.

import (
	"magis/internal/opt"
	"magis/internal/robust"
)

// degradedFallback decides whether a deadline-limited job can settle as a
// degraded success, and picks the tier. Returns nil when the job should
// take its natural outcome (not deadline-limited, ran to completion in
// time, or nothing servable survives).
//
// Two paths lead here:
//
//   - err == nil, search truncated by the client deadline: the best-so-far
//     state already passed any requested verification in searchJob, so it
//     is served as TierBest without re-verifying.
//   - err != nil on an uninterrupted deadline-limited job (typically the
//     truncated best-so-far failing verification): descend the ladder, but
//     on this path a tier must verify before it is served — a failure
//     already happened, so nothing unvetted leaves the building.
func (s *Server) degradedFallback(j *job, res *opt.Result, err error) *robust.Anytime {
	j.mu.Lock()
	limited, verified, interrupted := j.deadlineLimited, j.verified, j.interrupted
	j.mu.Unlock()
	if res == nil || !limited {
		return nil
	}
	if err == nil {
		if res.Stopped != opt.StopDeadline && res.Stopped != opt.StopCancelled {
			return nil
		}
		any, ferr := robust.Fallback(nil, res, false, j.req.VerifySeed)
		if ferr != nil {
			return nil
		}
		any.Verified = verified
		return any
	}
	if interrupted != reasonNone {
		return nil
	}
	any, ferr := robust.Fallback(nil, res, true, j.req.VerifySeed)
	if ferr != nil {
		return nil
	}
	return any
}
