package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"magis/internal/tensor"
)

// The incremental-maintenance oracle: WL label splicing (WLHashFrom) must
// agree exactly with the full hash after arbitrary mutation sequences. The
// mutations below deliberately include ones no search rewrite produces
// (leaf removal, input rewiring across the whole graph) because the
// splice claims self-verification: a wrong or stale "previous" snapshot
// may only cost speed, never correctness. Along the same sequences the
// reachability index, built over graphs whose ID ranges have holes, must
// answer every query like the set closures it replaces.

// orOp wraps testOp behind a pointer: WLHashFrom identifies "same
// operator" by interface equality, relying on the production invariant
// that Op payloads are shared pointers (*ops.Spec) across clones.
func orOp(kind string, dims ...int) Op {
	o := testOp{kind, tensor.S(dims...)}
	return &o
}

// oracleDAG builds a random layered DAG using pointer-shaped payloads.
func oracleDAG(r *rand.Rand, n int) *Graph {
	g := New()
	var ids []NodeID
	for i := 0; i < n; i++ {
		if len(ids) == 0 || r.Intn(5) == 0 {
			ids = append(ids, g.Add(orOp("In", 1+r.Intn(8))))
			continue
		}
		k := 1 + r.Intn(2)
		ins := make([]NodeID, 0, k)
		for j := 0; j < k; j++ {
			ins = append(ins, ids[r.Intn(len(ids))])
		}
		ids = append(ids, g.Add(orOp(fmt.Sprintf("Op%d", r.Intn(4)), 1+r.Intn(8)), ins...))
	}
	return g
}

// mutate applies one random structural edit to g, preserving acyclicity
// and lineage-stable IDs (survivors keep their NodeID, as Clone
// guarantees in the search). Returns false when the chosen edit was not
// applicable this round.
func mutate(r *rand.Rand, g *Graph) bool {
	order := g.Topo()
	if len(order) == 0 {
		return false
	}
	switch r.Intn(4) {
	case 0: // duplicate a node and rewire one consumer (remat-style)
		v := order[r.Intn(len(order))]
		n := g.Node(v)
		suc := g.Suc(v)
		if len(suc) == 0 {
			return false
		}
		dup := g.Add(n.Op, n.Ins...)
		g.ReplaceInput(suc[r.Intn(len(suc))], v, dup)
		return true
	case 1: // rewire an input to a topologically earlier node (no cycle)
		i := 1 + r.Intn(len(order)-1)
		v := order[i]
		n := g.Node(v)
		if len(n.Ins) == 0 {
			return false
		}
		slot := r.Intn(len(n.Ins))
		g.ReplaceInputAt(v, slot, order[r.Intn(i)])
		return true
	case 2: // remove a sink node
		for _, i := range r.Perm(len(order)) {
			v := order[i]
			if len(g.Suc(v)) == 0 && g.n > 1 {
				if err := g.Remove(v); err == nil {
					return true
				}
			}
		}
		return false
	default: // add a fresh consumer of random existing nodes
		k := 1 + r.Intn(2)
		ins := make([]NodeID, 0, k)
		for j := 0; j < k; j++ {
			ins = append(ins, order[r.Intn(len(order))])
		}
		g.Add(orOp("New", 1+r.Intn(8)), ins...)
		return true
	}
}

// checkReach compares a reachability index against the ancestor and
// descendant closures over every node and every ordered pair.
func checkReach(t *testing.T, tag string, g *Graph, r *ReachIndex) {
	t.Helper()
	nodes := g.Topo()
	for _, a := range nodes {
		anc, des := g.Anc(a), g.Des(a)
		if r.NumAnc(a) != len(anc) || r.NumDes(a) != len(des) || r.NW(a) != NarrowWaist(g.Len(), len(anc), len(des)) {
			t.Fatalf("%s: node %d: index (nw=%d anc=%d des=%d), closures (anc=%d des=%d)",
				tag, a, r.NW(a), r.NumAnc(a), r.NumDes(a), len(anc), len(des))
		}
		for _, b := range nodes {
			if r.IsDes(a, b) != des.Has(b) || r.IsAnc(a, b) != anc.Has(b) {
				t.Fatalf("%s: pair (%d,%d): index des=%v anc=%v, closures des=%v anc=%v",
					tag, a, b, r.IsDes(a, b), r.IsAnc(a, b), des.Has(b), anc.Has(b))
			}
		}
	}
}

// TestDominatorsMatchBruteForce checks the dense solver against the
// definition on random DAGs and their mutations: u strictly dominates v
// when no path from an entry reaches v once u is removed, and idom(v) is
// the strict dominator latest in topological order (they form a chain).
func TestDominatorsMatchBruteForce(t *testing.T) {
	for seq := 0; seq < 30; seq++ {
		r := rand.New(rand.NewSource(int64(2000 + seq)))
		g := oracleDAG(r, 4+r.Intn(30))
		for step := 0; step < 4; step++ {
			dt := Dominators(g)
			order := g.Topo()
			pos := make(map[NodeID]int, len(order))
			for i, v := range order {
				pos[v] = i
			}
			want := make(map[NodeID]NodeID, len(order))
			for _, v := range order {
				want[v] = Invalid
			}
			for _, u := range order {
				// reach: every node some entry reaches while u is removed.
				reach := make(map[NodeID]bool)
				var stack []NodeID
				for _, e := range g.Inputs() {
					if e != u {
						reach[e] = true
						stack = append(stack, e)
					}
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, y := range g.Suc(x) {
						if y != u && !reach[y] {
							reach[y] = true
							stack = append(stack, y)
						}
					}
				}
				for _, v := range order {
					if v != u && !reach[v] && (want[v] == Invalid || pos[u] > pos[want[v]]) {
						want[v] = u
					}
				}
			}
			if len(dt.Parent) != len(want) {
				t.Fatalf("seq %d step %d: dominator tree size %d != %d", seq, step, len(dt.Parent), len(want))
			}
			for v, p := range want {
				if got, ok := dt.Parent[v]; !ok || got != p {
					t.Fatalf("seq %d step %d: idom(%d) = %d (present=%v), want %d", seq, step, v, got, ok, p)
				}
			}
			mutate(r, g)
		}
	}
}

// TestIncrementalOracle drives randomized mutation sequences and asserts,
// at every step, that the spliced WL hash matches the full one
// bit-for-bit and that the reachability index matches the closures.
func TestIncrementalOracle(t *testing.T) {
	seqs := 60
	if testing.Short() {
		seqs = 15
	}
	for seq := 0; seq < seqs; seq++ {
		r := rand.New(rand.NewSource(int64(1000 + seq)))
		g := oracleDAG(r, 8+r.Intn(30))
		prevWL := g.WLSnapshot(nil)
		var staleWL *WLLabels // a grandparent snapshot, deliberately stale
		for step := 0; step < 6; step++ {
			child := g.Clone()
			if !mutate(r, child) {
				continue
			}
			tag := fmt.Sprintf("seq %d step %d", seq, step)

			// WL hash: splice from the parent snapshot == full hash.
			want := child.WLHashScratch(nil)
			got, snap := child.WLHashFrom(prevWL, nil)
			if got != want {
				t.Fatalf("%s: incremental WL hash %x != full %x", tag, got, want)
			}
			if snap.Hash() != want {
				t.Fatalf("%s: snapshot hash %x != full %x", tag, snap.Hash(), want)
			}
			// Self-verification: a stale (grandparent) snapshot must still
			// produce the same hash, only reusing fewer labels.
			if staleWL != nil {
				if h, _ := child.WLHashFrom(staleWL, nil); h != want {
					t.Fatalf("%s: WL hash from stale snapshot %x != full %x", tag, h, want)
				}
			}

			checkReach(t, tag, child, NewReachIndex(child))

			staleWL = prevWL
			prevWL = snap
			g = child
		}
	}
}

// TestWLHashFromForeignParent hands WLHashFrom a snapshot of an unrelated
// graph: node IDs collide with entirely different structure, the worst
// case for the clean check. The hash must still equal the full one.
func TestWLHashFromForeignParent(t *testing.T) {
	for seq := 0; seq < 20; seq++ {
		r := rand.New(rand.NewSource(int64(7000 + seq)))
		a := oracleDAG(r, 5+r.Intn(20))
		b := oracleDAG(r, 5+r.Intn(20))
		foreign := a.WLSnapshot(nil)
		want := b.WLHashScratch(nil)
		if got, _ := b.WLHashFrom(foreign, nil); got != want {
			t.Fatalf("seq %d: WL hash from foreign snapshot %x != full %x", seq, got, want)
		}
	}
}
