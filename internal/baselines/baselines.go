// Package baselines implements the comparison systems of §7.1: the
// unoptimized PyTorch baseline (plain program order with basic memory
// saving), the TVM / Torch-Inductor compiler baselines (basic memory
// saving plus fusion speedups), XLA's greedy re-materialization, DTR's
// heuristic dynamic re-materialization, POFO's combined
// re-materialization + offloading, and POFO over micro-batched graphs
// (Fig. 12). Every baseline runs on the same graph IR, cost model, and
// simulator as MAGIS, so relative numbers are apples-to-apples.
package baselines

import (
	"math"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/sched"
	"magis/internal/sim"
)

// Result is the outcome of one baseline optimization.
type Result struct {
	// PeakMem is the achieved peak device memory in bytes.
	PeakMem int64
	// Latency is the simulated epoch latency in seconds.
	Latency float64
	// OK is false when the baseline cannot meet the constraint ("OOM" /
	// "FAILURE" in the paper's figures).
	OK bool
}

// Optimizer is a memory-optimization baseline: minimize latency subject to
// a peak-memory limit (pass math.MaxInt64 for unconstrained).
type Optimizer interface {
	Name() string
	OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result
}

// All returns the baseline set of §7.1 in the paper's order.
func All() []Optimizer {
	return []Optimizer{POFO{}, DTR{}, XLA{}, TVM{}, TorchInductor{}}
}

// measure evaluates a graph+schedule on the shared simulator.
func measure(g *graph.Graph, order sched.Schedule, m *cost.Model) (int64, float64) {
	return sched.PeakOnly(g, order), sim.Latency(g, order, sim.Config{Model: m})
}

// PyTorch is the unoptimized reference: program order, tensors freed after
// their last use, no transformations.
type PyTorch struct{}

// Name implements Optimizer.
func (PyTorch) Name() string { return "PyTorch" }

// OptimizeMem implements Optimizer. PyTorch applies no optimization: the
// result is the baseline itself, failing if it exceeds the limit.
func (PyTorch) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	peak, lat := measure(g, g.Topo(), m)
	return Result{peak, lat, peak <= memLimit}
}

// TVM models the Relay baseline: basic memory saving identical to PyTorch
// plus whole-graph kernel fusion reducing latency (§7.2.3 shows TVM below
// the PyTorch latency line).
type TVM struct{}

// Name implements Optimizer.
func (TVM) Name() string { return "TVM" }

// FusionFactor is the latency multiplier from operator fusion.
const tvmFusionFactor = 0.92

// OptimizeMem implements Optimizer.
func (TVM) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	peak, lat := measure(g, g.Topo(), m)
	return Result{peak, lat * tvmFusionFactor, peak <= memLimit}
}

// TorchInductor models torch.compile: like TVM with stronger fusion.
type TorchInductor struct{}

// Name implements Optimizer.
func (TorchInductor) Name() string { return "TI" }

const tiFusionFactor = 0.88

// OptimizeMem implements Optimizer.
func (TorchInductor) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	peak, lat := measure(g, g.Topo(), m)
	return Result{peak, lat * tiFusionFactor, peak <= memLimit}
}

// MinimizeMemUnderLatency adapts an Optimizer to the Fig. 9 direction:
// the smallest peak memory achievable while keeping latency within
// latLimit. Latency grows as the memory limit tightens for all these
// systems, so a binary search over the limit suffices.
func MinimizeMemUnderLatency(o Optimizer, g *graph.Graph, m *cost.Model, latLimit float64) Result {
	base := (PyTorch{}).OptimizeMem(g, m, math.MaxInt64)
	lo, hi := 0.05, 1.0
	best := Result{OK: false}
	// hi is feasible iff the system works at all under this latency bound.
	if r := o.OptimizeMem(g, m, int64(hi*float64(base.PeakMem))); r.OK && r.Latency <= latLimit {
		best = r
	} else {
		return Result{OK: false}
	}
	for iter := 0; iter < 7; iter++ {
		mid := (lo + hi) / 2
		r := o.OptimizeMem(g, m, int64(mid*float64(base.PeakMem)))
		if r.OK && r.Latency <= latLimit {
			hi = mid
			if r.PeakMem < best.PeakMem {
				best = r
			}
		} else {
			lo = mid
		}
	}
	return best
}
