// Package sched implements graph scheduling: execution orders, the memory
// lifetime simulation of §2.1 (peak memory and memory hot-spots), the
// Serenity-style dynamic-programming re-ordering used as DpSchedule, the
// narrow-waist graph partitioning of §6.1, and the incremental scheduling
// of Algorithm 2.
package sched

import (
	"fmt"

	"magis/internal/graph"
	"magis/internal/ops"
)

// Schedule is an execution order over a graph's nodes.
type Schedule []graph.NodeID

// Clone returns an independent copy.
func (s Schedule) Clone() Schedule { return append(Schedule(nil), s...) }

// Validate checks that s is a permutation of g's nodes respecting
// dependencies.
func (s Schedule) Validate(g *graph.Graph) error {
	if len(s) != g.Len() {
		return fmt.Errorf("sched: schedule has %d nodes, graph has %d", len(s), g.Len())
	}
	// pos[v] is v's step plus one, 0 while v is unseen; every node ID is
	// below g.NextID().
	pos := make([]int32, g.NextID())
	for i, v := range s {
		if !g.Has(v) {
			return fmt.Errorf("sched: node %d not in graph", v)
		}
		if pos[v] != 0 {
			return fmt.Errorf("sched: node %d appears twice", v)
		}
		pos[v] = int32(i) + 1
	}
	for _, v := range s {
		late := graph.Invalid // the smallest producer scheduled after v
		for _, p := range g.Node(v).Ins {
			if pos[p] > pos[v] && (late == graph.Invalid || p < late) {
				late = p
			}
		}
		if late != graph.Invalid {
			return fmt.Errorf("sched: node %d scheduled before producer %d", v, late)
		}
	}
	return nil
}

// DeviceSizer lets special node payloads (e.g. collapsed fission regions)
// override memory accounting: OutDeviceBytes is the footprint of the
// node's output while alive, ExecTransientBytes is extra memory occupied
// only while the node executes.
type DeviceSizer interface {
	OutDeviceBytes() int64
	ExecTransientBytes() int64
}

// OutDeviceBytes returns the device bytes the node's output holds while
// alive. Store outputs live in host memory and cost nothing on device.
func OutDeviceBytes(n *graph.Node) int64 {
	if ds, ok := n.Op.(DeviceSizer); ok {
		return ds.OutDeviceBytes()
	}
	if ops.IsStore(n.Op.Kind()) {
		return 0
	}
	return n.OutBytes()
}

// ExecTransientBytes returns extra device bytes held only during the
// node's execution.
func ExecTransientBytes(n *graph.Node) int64 {
	if ds, ok := n.Op.(DeviceSizer); ok {
		return ds.ExecTransientBytes()
	}
	return 0
}

// MemProfile is the result of simulating a schedule's memory behaviour
// under the lifetime model of §2.1.
type MemProfile struct {
	// Peak is the peak memory usage M_peak in bytes.
	Peak int64
	// PerStep[i] is M_{i+1}: active memory during execution of step i.
	PerStep []int64
	// PeakStep is the first step at which Peak is reached.
	PeakStep int
	// Hotspots is H: all tensors active at some peak step.
	Hotspots graph.Set
}

// Scratch holds reusable lifetime-analysis buffers for Simulate and
// PeakOnly. The search simulates every surviving candidate, so
// per-evaluator scratch structs keep this hot path off the allocator. The
// zero value is ready to use; a Scratch must not be shared between
// goroutines.
type Scratch struct {
	pos    graph.IDTable
	freeAt [][]graph.NodeID
	last   []int
}

// lifetimes fills pos, freeAt, and last for (g, order): freeAt[i] lists
// nodes whose output can be freed after step i completes, last[i] is the
// step through which order[i]'s output stays alive.
func (sc *Scratch) lifetimes(g *graph.Graph, order Schedule) {
	n := len(order)
	sc.pos.Reset(int(g.NextID()))
	for i, v := range order {
		sc.pos.Put(v, int32(i))
	}
	if cap(sc.freeAt) < n {
		sc.freeAt = make([][]graph.NodeID, n)
	} else {
		sc.freeAt = sc.freeAt[:n]
	}
	for i := range sc.freeAt {
		sc.freeAt[i] = sc.freeAt[i][:0]
	}
	if cap(sc.last) < n {
		sc.last = make([]int, n)
	} else {
		sc.last = sc.last[:n]
	}
	for i, v := range order {
		f := i // if never consumed, freed at end (kept alive through i=own)
		g.EachSucEdge(v, func(c graph.NodeID) {
			if p, ok := sc.pos.Get(c); ok && int(p) > f {
				f = int(p)
			}
		})
		if g.SucEdges(v) == 0 {
			f = n - 1 // graph outputs stay alive to the end
		}
		sc.last[i] = f
		sc.freeAt[f] = append(sc.freeAt[f], v)
	}
}

// Simulate computes the memory profile of executing g in the given order.
func Simulate(g *graph.Graph, order Schedule) *MemProfile {
	return (&Scratch{}).Simulate(g, order)
}

// Simulate is the package-level Simulate with reused work buffers. The
// returned profile owns fresh PerStep and Hotspots storage and stays valid
// after the scratch is reused.
func (sc *Scratch) Simulate(g *graph.Graph, order Schedule) *MemProfile {
	sc.lifetimes(g, order)
	prof := &MemProfile{PerStep: make([]int64, len(order)), PeakStep: -1}
	var cur int64
	for i, v := range order {
		node := g.Node(v)
		cur += OutDeviceBytes(node)
		m := cur + ExecTransientBytes(node)
		prof.PerStep[i] = m
		if m > prof.Peak {
			prof.Peak = m
			prof.PeakStep = i
		}
		for _, dead := range sc.freeAt[i] {
			cur -= OutDeviceBytes(g.Node(dead))
		}
	}
	// Hotspots: tensors alive at any step attaining the peak.
	hot := make([]bool, len(order))
	for i := range order {
		if prof.PerStep[i] != prof.Peak {
			continue
		}
		for j := 0; j <= i; j++ {
			if sc.last[j] >= i {
				hot[j] = true
			}
		}
	}
	var ids []graph.NodeID
	for j, ok := range hot {
		if ok {
			ids = append(ids, order[j])
		}
	}
	prof.Hotspots = graph.NewSet(ids...)
	return prof
}

// PeakOnly computes only the peak memory of the order — the hot loop of
// the DP scheduler and search, kept allocation-light.
func PeakOnly(g *graph.Graph, order Schedule) int64 {
	return (&Scratch{}).PeakOnly(g, order)
}

// PeakOnly is the package-level PeakOnly with reused work buffers.
func (sc *Scratch) PeakOnly(g *graph.Graph, order Schedule) int64 {
	sc.lifetimes(g, order)
	var cur, peak int64
	for i, v := range order {
		node := g.Node(v)
		cur += OutDeviceBytes(node)
		if m := cur + ExecTransientBytes(node); m > peak {
			peak = m
		}
		for _, dead := range sc.freeAt[i] {
			cur -= OutDeviceBytes(g.Node(dead))
		}
	}
	return peak
}
