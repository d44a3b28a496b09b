package baselines

import (
	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
)

// XLA models XLA's greedy re-materialization pass: while over the memory
// limit, pick the hot-spot tensor whose re-computation is cheapest per
// byte saved and recompute it for its farthest consumer. §7.2.3 notes its
// latency blows up under tight limits because re-computing one operator
// may force re-computing its (re-materialized) producers too — the greedy
// chain our loop reproduces naturally.
type XLA struct{}

// Name implements Optimizer.
func (XLA) Name() string { return "XLA" }

// OptimizeMem implements Optimizer.
func (XLA) OptimizeMem(g *graph.Graph, m *cost.Model, memLimit int64) Result {
	cur := g.Clone()
	order := sched.Schedule(cur.Topo())
	sc := &sched.Scheduler{}
	for iter := 0; iter < 400; iter++ {
		prof := sched.Simulate(cur, order)
		if prof.Peak <= memLimit {
			peak, lat := measure(cur, order, m)
			return Result{peak, lat, true}
		}
		v := pickGreedy(cur, m, prof, order)
		if v == graph.Invalid {
			break
		}
		// Recompute v for its last-scheduled consumer.
		pos := make(map[graph.NodeID]int, len(order))
		for i, x := range order {
			pos[x] = i
		}
		cons := cur.Suc(v)
		last := cons[0]
		for _, c := range cons {
			if pos[c] > pos[last] {
				last = c
			}
		}
		node := cur.Node(v)
		dup := cur.AddNamed(node.Name+"'", node.Op, node.Ins...)
		cur.ReplaceInput(last, v, dup)
		// Keep the program order, inserting the recompute right before its
		// consumer.
		newOrder := make(sched.Schedule, 0, len(order)+1)
		for _, x := range order {
			if x == last {
				newOrder = append(newOrder, dup)
			}
			newOrder = append(newOrder, x)
		}
		order = newOrder
		if err := order.Validate(cur); err != nil {
			order = sc.ScheduleGraph(cur)
		}
	}
	peak, lat := measure(cur, order, m)
	return Result{peak, lat, peak <= memLimit}
}

// pickGreedy chooses the hot tensor with the best bytes-saved per
// recompute-second ratio that has at least two distinct consumers.
func pickGreedy(g *graph.Graph, m *cost.Model, prof *sched.MemProfile, order sched.Schedule) graph.NodeID {
	best := graph.Invalid
	bestScore := 0.0
	for _, v := range prof.Hotspots {
		node := g.Node(v)
		k := node.Op.Kind()
		if ops.IsLeaf(k) || ops.IsTransfer(k) || len(node.Ins) == 0 {
			continue
		}
		if len(g.Suc(v)) < 2 {
			continue
		}
		c := m.NodeLatency(node)
		if c <= 0 {
			continue
		}
		score := float64(sched.OutDeviceBytes(node)) / c
		if score > bestScore {
			bestScore = score
			best = v
		}
	}
	return best
}
