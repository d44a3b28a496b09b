// Package sim is the discrete-event execution simulator standing in for
// the paper's GPU measurement backend (§7.1). It models a compute stream
// and an asynchronous copy stream (PyTorch CUDA-Stream style): Store/Load
// transfers overlap with computation, a Load placed a few operators before
// its consumer hides its PCIe latency, and memory is accounted
// continuously — tensors are allocated when their producer starts and
// freed when their last consumer finishes.
package sim

import (
	"cmp"
	"slices"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
)

// Config controls a simulation run.
type Config struct {
	// Model prices operator latencies.
	Model *cost.Model
	// Timeline requests a memory-over-time trace (Fig. 16).
	Timeline bool
	// Faults perturbs the execution (fault-injection replay); nil runs the
	// pristine simulation with zero overhead.
	Faults *FaultHooks
}

// FaultHooks lets a fault injector perturb a simulated execution. All hooks
// must be deterministic functions of the node for a replay to be
// reproducible; internal/faults derives them from a seeded scenario.
type FaultHooks struct {
	// LatencyScale returns a multiplicative factor on the node's modeled
	// latency (1 = unperturbed). It models cost-model error on compute
	// operators and degraded host-link bandwidth on transfers.
	LatencyScale func(n *graph.Node) float64
	// TransferFailures returns how many transient failures a Store/Load
	// suffers before succeeding. Failures are absorbed by a bounded
	// retry-with-backoff model: each failed attempt costs the transfer's
	// latency plus an exponentially growing backoff delay. A transfer still
	// failing after MaxRetries aborts (counted in Result.TransferAborts).
	TransferFailures func(n *graph.Node) int
	// MaxRetries bounds absorbed failures per transfer (default 3).
	MaxRetries int
	// RetryBackoff is the base backoff delay in seconds, doubling per
	// attempt (default 50µs).
	RetryBackoff float64
	// RetryJitter spreads each backoff delay by a multiplicative factor
	// drawn deterministically from [1-RetryJitter, 1+RetryJitter]. Pure
	// exponential doubling synchronizes retries across transfers that
	// failed together — the classic thundering-herd shape — so real retry
	// stacks always jitter; 0 keeps the legacy synchronized model.
	// Values are clamped to [0, 0.9].
	RetryJitter float64
	// JitterSeed seeds the jitter stream. The factor for a given
	// (seed, node, attempt) is a pure hash, never a function of execution
	// order, so a seeded replay reproduces bit-identical timelines.
	JitterSeed int64
}

func (h *FaultHooks) maxRetries() int {
	if h.MaxRetries <= 0 {
		return 3
	}
	return h.MaxRetries
}

func (h *FaultHooks) backoff() float64 {
	if h.RetryBackoff <= 0 {
		return 50e-6
	}
	return h.RetryBackoff
}

// jitterFactor returns the deterministic backoff spread for one retry
// attempt of one node: a factor in [1-RetryJitter, 1+RetryJitter] that is
// a pure splitmix64-style hash of (JitterSeed, node, attempt).
func (h *FaultHooks) jitterFactor(node graph.NodeID, attempt int) float64 {
	j := h.RetryJitter
	if j <= 0 {
		return 1
	}
	if j > 0.9 {
		j = 0.9
	}
	x := uint64(h.JitterSeed) ^ 0x6A09E667F3BCC909
	x += uint64(int64(node)+1) * 0x9E3779B97F4A7C15
	x += uint64(attempt+1) * 0xBF58476D1CE4E5B9
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53) // uniform [0,1)
	return 1 + j*(2*u-1)
}

// FaultPoint records one absorbed (or aborted) transfer fault on the
// simulated timeline.
type FaultPoint struct {
	// Time is when the faulty transfer was issued.
	Time float64
	// Node is the transfer operator that faulted.
	Node graph.NodeID
	// Retries is the number of extra attempts the copy stream absorbed.
	Retries int
	// Aborted reports that the transfer still failed after MaxRetries.
	Aborted bool
}

// SelfCosted marks node payloads that price their own execution (e.g.
// collapsed fission regions); the simulator uses their latency directly.
type SelfCosted interface {
	Latency() float64
}

// Point is one sample of the memory timeline.
type Point struct {
	Time float64 // seconds since start
	Mem  int64   // device bytes in use
}

// Result summarizes one simulated execution.
type Result struct {
	// Latency is the makespan in seconds.
	Latency float64
	// Peak is the peak device memory in bytes.
	Peak int64
	// ComputeBusy and CopyBusy are per-stream busy times.
	ComputeBusy float64
	CopyBusy    float64
	// Timeline is the memory trace (only when Config.Timeline).
	Timeline []Point
	// Retries counts transfer attempts repeated after transient faults
	// (only with Config.Faults).
	Retries int
	// RetryTime is the extra copy-stream time spent re-running failed
	// transfers, backoff included.
	RetryTime float64
	// TransferAborts counts transfers that still failed after MaxRetries —
	// a nonzero value means the plan did not complete under the scenario.
	TransferAborts int
	// Faults lists the absorbed transfer faults in schedule order.
	Faults []FaultPoint
}

// Run simulates executing g in the given order under cfg: the timing pass
// of Latency, then continuous-time memory accounting over its start and
// finish times.
func Run(g *graph.Graph, order sched.Schedule, cfg Config) *Result {
	res := &Result{}
	start, finish := timing(g, order, cfg, res)
	memory(g, order, start, finish, cfg.Timeline, res)
	return res
}

// Latency is Run(g, order, cfg).Latency without the memory pass: the
// makespan alone, for callers that price a schedule by its time.
func Latency(g *graph.Graph, order sched.Schedule, cfg Config) float64 {
	var res Result
	timing(g, order, cfg, &res)
	return res.Latency
}

// timing is the timing pass: it dispatches order on the compute and copy
// streams, fills res's latency, busy-time and fault fields, and returns
// every node's start and finish time in dense ID-indexed tables. A valid
// schedule covers every node, so every producer/consumer looked up in
// them appears in order.
func timing(g *graph.Graph, order sched.Schedule, cfg Config, res *Result) (start, finish []float64) {
	bound := graph.NodeID(0)
	for _, v := range order {
		if v >= bound {
			bound = v + 1
		}
	}
	start = make([]float64, bound)
	finish = make([]float64, bound)

	latency := func(node *graph.Node) float64 {
		// Payloads may carry their own latency (collapsed fission regions).
		if sc, ok := node.Op.(SelfCosted); ok {
			return sc.Latency()
		}
		return cfg.Model.NodeLatency(node)
	}

	var computeFree, copyFree float64
	var prevComputeStart float64
	for _, v := range order {
		node := g.Node(v)
		lat := latency(node)
		if cfg.Faults != nil && cfg.Faults.LatencyScale != nil {
			if f := cfg.Faults.LatencyScale(node); f > 0 {
				lat *= f
			}
		}
		ready := 0.0
		for _, p := range node.Ins {
			if p < bound {
				if f := finish[p]; f > ready {
					ready = f
				}
			}
		}
		if ops.IsTransfer(node.Op.Kind()) {
			// Transfers are issued when the preceding compute operator in
			// the schedule is dispatched, then run as the copy stream and
			// their producers allow.
			s := ready
			if copyFree > s {
				s = copyFree
			}
			if prevComputeStart > s {
				s = prevComputeStart
			}
			// Transient faults: each failed attempt re-pays the transfer
			// latency plus an exponential backoff before the retry.
			dur := lat
			if h := cfg.Faults; h != nil && h.TransferFailures != nil {
				if k := h.TransferFailures(node); k > 0 {
					maxR := h.maxRetries()
					absorbed := k
					if absorbed > maxR {
						absorbed = maxR
					}
					var extra float64
					for i := 0; i < absorbed; i++ {
						extra += lat + h.backoff()*float64(int64(1)<<i)*h.jitterFactor(v, i)
					}
					dur += extra
					res.Retries += absorbed
					res.RetryTime += extra
					aborted := k > maxR
					if aborted {
						res.TransferAborts++
					}
					res.Faults = append(res.Faults, FaultPoint{
						Time: s, Node: v, Retries: absorbed, Aborted: aborted,
					})
				}
			}
			start[v] = s
			finish[v] = s + dur
			copyFree = finish[v]
			res.CopyBusy += dur
		} else {
			s := ready
			if computeFree > s {
				s = computeFree
			}
			start[v] = s
			finish[v] = s + lat
			computeFree = finish[v]
			prevComputeStart = s
			res.ComputeBusy += lat
		}
	}
	for _, v := range order {
		if finish[v] > res.Latency {
			res.Latency = finish[v]
		}
	}
	return start, finish
}

// memory is the memory pass: tensors are allocated when their producer
// starts and freed when their last consumer finishes, and res.Peak is the
// most device memory in use at any instant.
func memory(g *graph.Graph, order sched.Schedule, start, finish []float64, timeline bool, res *Result) {
	bound := graph.NodeID(len(finish))
	type event struct {
		t     float64
		delta int64
	}
	events := make([]event, 0, 2*len(order))
	for _, v := range order {
		node := g.Node(v)
		bytes := sched.OutDeviceBytes(node)
		trans := sched.ExecTransientBytes(node)
		if trans > 0 {
			events = append(events, event{start[v], trans}, event{finish[v], -trans})
		}
		if bytes == 0 {
			continue
		}
		freeAt := res.Latency
		if g.SucEdges(v) > 0 {
			freeAt = 0
			g.EachSucEdge(v, func(c graph.NodeID) {
				if c < bound {
					if f := finish[c]; f > freeAt {
						freeAt = f
					}
				}
			})
		}
		events = append(events, event{start[v], bytes}, event{freeAt, -bytes})
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta) // frees before allocs at ties
	})
	var cur int64
	for _, e := range events {
		cur += e.delta
		if cur > res.Peak {
			res.Peak = cur
		}
		if timeline {
			res.Timeline = append(res.Timeline, Point{e.t, cur})
		}
	}
}
