package baselines

import (
	"math"
	"sort"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
)

// POFO models Beaumont et al. (NeurIPS'21): optimal combination of
// re-materialization and offloading for training. The decision variables
// are the long-lived "stash" tensors — forward activations whose consumers
// include backward operators. For each stash tensor POFO chooses keep /
// offload (Store early, Load before the backward use) / recompute, via a
// dynamic program over memory quanta minimizing added latency subject to
// the peak-memory limit.
type POFO struct{}

// Name implements Optimizer.
func (POFO) Name() string { return "POFO" }

// stash is one candidate long-lived activation.
type stash struct {
	id        graph.NodeID
	bytes     int64
	swapCost  float64 // exposed transfer latency estimate
	rematCost float64 // recomputation latency
	canRemat  bool
}

// OptimizeMem implements Optimizer.
func (POFO) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	order := sched.Schedule(g.Topo())
	prof := sched.Simulate(g, order)
	if prof.Peak <= memLimit {
		peak, lat := measure(g, order, m)
		return Result{peak, lat, true}
	}
	// The freed-bytes target is an estimate (a stashed tensor only lowers
	// the peak while its lifetime spans it), so refine upward, keep the
	// best attempt, and finish with a greedy per-tensor top-up.
	need := prof.Peak - memLimit
	best := Result{PeakMem: prof.Peak, Latency: math.Inf(1), OK: false}
	bestG, bestOrder := g, order
	for attempt := 0; attempt < 6; attempt++ {
		r, ng, no := pofoOnce(g, m, memLimit, need, order)
		if r.OK && (!best.OK || r.Latency < best.Latency) {
			best, bestG, bestOrder = r, ng, no
		} else if !best.OK && r.PeakMem < best.PeakMem {
			best, bestG, bestOrder = r, ng, no
		}
		need = need * 5 / 4
	}
	if best.OK {
		return best
	}
	return pofoTopUp(bestG, m, memLimit, bestOrder, best)
}

// pofoTopUp swaps additional hot tensors one at a time until the limit is
// met or no further progress is possible.
func pofoTopUp(g *graph.Graph, m *cost.Model, memLimit int64, order sched.Schedule, cur Result) Result {
	for iter := 0; iter < 16; iter++ {
		prof := sched.Simulate(g, order)
		if prof.Peak <= memLimit {
			peak, lat := measure(g, order, m)
			return Result{peak, lat, true}
		}
		cands := stashTensors(g, m, order)
		// Pick the largest unstashed hot candidate.
		var pick *stash
		for i := range cands {
			c := &cands[i]
			if !prof.Hotspots.Has(c.id) || alreadySwapped(g, c.id) {
				continue
			}
			if pick == nil || c.bytes > pick.bytes {
				pick = c
			}
		}
		if pick == nil {
			break
		}
		actions := make([]int, len(cands))
		for i := range cands {
			if cands[i].id == pick.id {
				actions[i] = 1
			}
		}
		g, order = applyStash(g, cands, actions, order)
	}
	peak, lat := measure(g, order, m)
	return Result{peak, lat, peak <= memLimit}
}

func alreadySwapped(g *graph.Graph, v graph.NodeID) bool {
	for _, c := range g.Suc(v) {
		if ops.IsStore(g.Node(c).Op.Kind()) {
			return true
		}
	}
	return false
}

func pofoOnce(g *graph.Graph, m *cost.Model, memLimit, need int64, order sched.Schedule) (Result, *graph.Graph, sched.Schedule) {
	cands := stashTensors(g, m, order)
	if len(cands) == 0 {
		peak, lat := measure(g, order, m)
		return Result{peak, lat, false}, g, order
	}
	// Knapsack-style DP over quantized bytes: minimize added latency to
	// free at least `need` bytes. Quantum = need/256.
	quantum := need / 256
	if quantum < 1 {
		quantum = 1
	}
	target := int((need + quantum - 1) / quantum)
	const inf = 1e18
	dp := make([]float64, target+1)
	choice := make([][]int, target+1) // per state: chosen action per cand
	for i := 1; i <= target; i++ {
		dp[i] = inf
	}
	for ci, c := range cands {
		q := int(c.bytes / quantum)
		if q == 0 {
			q = 1
		}
		costs := []struct {
			action int
			lat    float64
		}{{1, c.swapCost}}
		if c.canRemat {
			costs = append(costs, struct {
				action int
				lat    float64
			}{2, c.rematCost})
		}
		// 0/1 knapsack, iterate states descending.
		for s := target; s >= 0; s-- {
			if dp[s] >= inf {
				continue
			}
			for _, ch := range costs {
				ns := s + q
				if ns > target {
					ns = target
				}
				if dp[s]+ch.lat < dp[ns] {
					dp[ns] = dp[s] + ch.lat
					sel := append([]int(nil), choice[s]...)
					for len(sel) < ci {
						sel = append(sel, 0)
					}
					sel = append(sel, ch.action)
					choice[ns] = sel
				}
			}
		}
	}
	if dp[target] >= inf {
		// Even stashing everything is not enough.
		peak, lat := measure(g, order, m)
		return Result{peak, lat, false}, g, order
	}
	// Apply the chosen actions as graph transformations and re-measure.
	ng, norder := applyStash(g, cands, choice[target], order)
	peak, lat := measure(ng, norder, m)
	return Result{peak, lat, peak <= memLimit}, ng, norder
}

// stashTensors finds forward activations consumed after the loss point,
// with their offload and recompute costs.
func stashTensors(g *graph.Graph, m *cost.Model, order sched.Schedule) []stash {
	pos := make(map[graph.NodeID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	var out []stash
	for _, v := range order {
		node := g.Node(v)
		k := node.Op.Kind()
		if ops.IsTransfer(k) || node.OutBytes() == 0 {
			continue
		}
		cons := g.Suc(v)
		if len(cons) == 0 {
			continue
		}
		firstUse, lastUse := len(order), 0
		for _, c := range cons {
			if pos[c] < firstUse {
				firstUse = pos[c]
			}
			if pos[c] > lastUse {
				lastUse = pos[c]
			}
		}
		// Long-lived: the gap between production and last use spans at
		// least a quarter of the program.
		if lastUse-pos[v] < len(order)/4 {
			continue
		}
		tr := m.TransferLatency(node.OutBytes())
		// Offload overlaps compute; assume the paper's placement policy
		// hides most of it, leaving ~20% exposed plus sync overhead.
		sw := 0.2 * 2 * tr
		s := stash{id: v, bytes: sched.OutDeviceBytes(node), swapCost: sw}
		if !ops.IsLeaf(k) && len(node.Ins) > 0 {
			s.canRemat = true
			s.rematCost = m.NodeLatency(node)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// applyStash rewrites g with the chosen swap/remat per stash tensor and
// splices the new operators into the program order.
func applyStash(g *graph.Graph, cands []stash, actions []int, order sched.Schedule) (*graph.Graph, sched.Schedule) {
	ng := g.Clone()
	pos := make(map[graph.NodeID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	var after []insertion  // right after producer
	var before []insertion // right before consumer
	for i, c := range cands {
		if i >= len(actions) || actions[i] == 0 {
			continue
		}
		node := ng.Node(c.id)
		cons := ng.Suc(c.id)
		last := cons[0]
		for _, x := range cons {
			if pos[x] > pos[last] {
				last = x
			}
		}
		switch actions[i] {
		case 1: // swap
			sh, dt := node.Op.OutShape(), node.Op.DType()
			st := ng.Add(ops.NewStore(sh, dt), c.id)
			ld := ng.Add(ops.NewLoad(sh, dt), st)
			// Every consumer in the last half of the lifetime reads the
			// reloaded copy.
			mid := (pos[c.id] + pos[last]) / 2
			for _, x := range cons {
				if pos[x] > mid {
					ng.ReplaceInput(x, c.id, ld)
				}
			}
			after = append(after, insertion{c.id, st})
			before = append(before, insertion{earliestConsumer(ng, ld, pos), ld})
		case 2: // remat
			dup := ng.AddNamed(node.Name+"'", node.Op, node.Ins...)
			ng.ReplaceInput(last, c.id, dup)
			before = append(before, insertion{last, dup})
		}
	}
	var no sched.Schedule
	afterOf := groupBy(after)
	beforeOf := groupBy(before)
	for _, v := range order {
		no = append(no, beforeOf[v]...)
		no = append(no, v)
		no = append(no, afterOf[v]...)
	}
	if err := no.Validate(ng); err != nil {
		no = ng.Topo()
	}
	return ng, no
}

func earliestConsumer(g *graph.Graph, v graph.NodeID, pos map[graph.NodeID]int) graph.NodeID {
	cons := g.Suc(v)
	best := cons[0]
	for _, c := range cons {
		if pos[c] < pos[best] {
			best = c
		}
	}
	return best
}

// insertion pins a new operator's position relative to an existing one.
type insertion struct {
	anchor graph.NodeID
	node   graph.NodeID
}

func groupBy(ins []insertion) map[graph.NodeID][]graph.NodeID {
	out := make(map[graph.NodeID][]graph.NodeID)
	for _, i := range ins {
		out[i.anchor] = append(out[i.anchor], i.node)
	}
	return out
}
