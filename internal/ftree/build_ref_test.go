package ftree

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"magis/internal/dgraph"
	"magis/internal/fission"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/rules"
	"magis/internal/sched"
)

// This file keeps the former F-Tree construction as the differential
// reference for the dense one: per D-Graph component it extracts a
// Subgraph (and a second one with the secondary entries pruned), solves
// dominators on it with graph.Dominators and scores heat through map-based
// tables, one component after another.

// refBuild is Algorithm 1 over per-component subgraphs.
func refBuild(g *graph.Graph, hot graph.Set, opt Options) *Tree {
	L := opt.maxLevel()
	d := dgraph.Build(g)
	// cand is a tree node with the dominator it was built from.
	type cand struct {
		*Node
		dom graph.NodeID
	}
	var cands []cand
	var notInnermost graph.IDTable
	for _, comp := range d.Components() {
		compNodes := comp.GraphNodes()
		sub := g.Subgraph(compNodes)
		if sub.Len() < 2 {
			continue
		}
		// §2.1: the dominator tree takes THE input tensor as entry.
		// Secondary entries of the component (labels, positions, sliced
		// side inputs) must not break domination, so the tree is computed
		// with their edges removed; the nodes themselves remain available
		// as sliced inputs of candidates.
		domGraph := sub
		if entries := sub.Inputs(); len(entries) > 1 {
			main := entries[0]
			best := -1
			for _, e := range entries {
				if n := len(sub.Des(e)); n > best {
					best = n
					main = e
				}
			}
			var pruned []graph.NodeID
			for _, v := range compNodes {
				if v == main || !slices.Contains(entries, v) {
					pruned = append(pruned, v)
				}
			}
			domGraph = g.Subgraph(graph.NewSet(pruned...))
		}
		dt := graph.Dominators(domGraph)
		scores := refHeatScores(g, dt, hot, opt.NaiveFission)
		smax := 0.0
		for _, s := range scores {
			if s > smax {
				smax = s
			}
		}
		if smax <= 0 {
			continue
		}
		for i := 1; i <= L; i++ {
			lo, hi := float64(i)/float64(L), float64(i+1)/float64(L)
			var bucket []graph.NodeID
			for v, s := range scores {
				r := s / smax
				if r >= lo && r < hi {
					bucket = append(bucket, v)
				}
			}
			slices.Sort(bucket)
			// Select dominators whose dominated set contains no other
			// bucket member (Algorithm 1 line 11): walk each member's
			// dominator chain marking proper ancestors as non-innermost.
			notInnermost.Reset(int(g.NextID()))
			for _, w := range bucket {
				for p := dt.Parent[w]; p != graph.Invalid; p = dt.Parent[p] {
					if _, ok := notInnermost.Get(p); ok {
						break
					}
					notInnermost.Put(p, 0)
				}
			}
			for _, vdom := range bucket {
				if _, ok := notInnermost.Get(vdom); ok {
					continue
				}
				s := dt.Des(vdom)
				if len(s) == 0 {
					continue
				}
				tr, err := fission.Resolve(g, d, comp, s, 1)
				if err != nil {
					continue
				}
				if tr.MaxParts(g) < 2 {
					continue
				}
				cands = append(cands, cand{&Node{T: tr, N: 1, Score: scores[vdom], Level: i}, vdom})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if len(cands[i].T.S) != len(cands[j].T.S) {
			return len(cands[i].T.S) > len(cands[j].T.S)
		}
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].dom < cands[j].dom
	})
	if opt.MaxCandidates > 0 && len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}
	// Nest by set containment into a LAMINAR family: each candidate hangs
	// under the smallest candidate strictly containing it; candidates that
	// partially overlap an already-kept candidate are dropped (enabling
	// two interleaved regions would make collapsed evaluation cyclic).
	t := &Tree{}
	var kept []*Node
	for _, cd := range cands {
		c := cd.Node
		laminar := true
		for _, k := range kept {
			if c.T.S.PartiallyOverlaps(k.T.S) {
				laminar = false
				break
			}
		}
		if !laminar {
			continue
		}
		kept = append(kept, c)
		parent := t.smallestContainer(c)
		if parent == nil {
			t.Roots = append(t.Roots, c)
		} else {
			c.Parent = parent
			parent.Children = append(parent.Children, c)
		}
	}
	return t
}

// refHeatScores computes Equation (3)/(4)'s memory-heat score for every node
// in one O(V) post-order pass over the dominator tree:
//
//	heat(v) = sum of hot-spot bytes strictly dominated by v
//	score(v) = (1 - 1/n) * heat(v)  with n = 2
//
// The exact Equation (4) additionally subtracts the candidate's input
// residency; computing inps(des(v)) for every node is Theta(V^2), so the
// input term is deferred to candidate validation (fission.Resolve) and the
// optimizer's measured evaluation, which subsume it. With naive = true
// every node with a non-trivial dominated set scores 1 (the naive-fission
// ablation).
func refHeatScores(g *graph.Graph, dt *graph.DomTree, hot graph.Set, naive bool) map[graph.NodeID]float64 {
	order := dt.Nodes() // reverse postorder: parents before children
	sub := make(map[graph.NodeID]int64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var s int64
		if hot.Has(v) {
			s = sched.OutDeviceBytes(g.Node(v))
		}
		for _, c := range dt.Children(v) {
			s += sub[c]
		}
		sub[v] = s
	}
	scores := make(map[graph.NodeID]float64, len(order))
	for _, v := range order {
		hasChild := len(dt.Children(v)) > 0
		if !hasChild {
			scores[v] = 0
			continue
		}
		if naive {
			scores[v] = 1
			continue
		}
		own := int64(0)
		if hot.Has(v) {
			own = sched.OutDeviceBytes(g.Node(v))
		}
		scores[v] = 0.5 * float64(sub[v]-own)
	}
	return scores
}

// sameTree reports the first difference between two trees: a node's set,
// axis choice, fission number, score, level, parent or children, or the
// root order.
func sameTree(got, want *Tree) error {
	var rec func(path string, x, y *Node) error
	rec = func(path string, x, y *Node) error {
		switch {
		case !slices.Equal(x.T.S, y.T.S):
			return fmt.Errorf("%s: S = %v, want %v", path, x.T.S, y.T.S)
		case !maps.Equal(x.T.Choice, y.T.Choice):
			return fmt.Errorf("%s: Choice = %v, want %v", path, x.T.Choice, y.T.Choice)
		case x.T.N != y.T.N || x.N != y.N:
			return fmt.Errorf("%s: N = %d/%d, want %d/%d", path, x.T.N, x.N, y.T.N, y.N)
		case math.Float64bits(x.Score) != math.Float64bits(y.Score):
			return fmt.Errorf("%s: Score = %v, want %v", path, x.Score, y.Score)
		case x.Level != y.Level:
			return fmt.Errorf("%s: Level = %d, want %d", path, x.Level, y.Level)
		case len(x.Children) != len(y.Children):
			return fmt.Errorf("%s: %d children, want %d", path, len(x.Children), len(y.Children))
		}
		for i := range x.Children {
			if x.Children[i].Parent != x || y.Children[i].Parent != y {
				return fmt.Errorf("%s/%d: parent link broken", path, i)
			}
			if err := rec(fmt.Sprintf("%s/%d", path, i), x.Children[i], y.Children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if len(got.Roots) != len(want.Roots) {
		return fmt.Errorf("%d roots, want %d", len(got.Roots), len(want.Roots))
	}
	for i := range got.Roots {
		if got.Roots[i].Parent != nil {
			return fmt.Errorf("root %d has a parent", i)
		}
		if err := rec(fmt.Sprint(i), got.Roots[i], want.Roots[i]); err != nil {
			return err
		}
	}
	return nil
}

// rewritten returns g followed by up to n states, each the first
// application of the next rule in the catalog that applies to the one
// before: the graphs a search re-analyzes after rewrites.
func rewritten(g *graph.Graph, hot graph.Set, n int) []*graph.Graph {
	out := []*graph.Graph{g}
	for _, r := range rules.All() {
		if len(out) > n {
			break
		}
		cur := out[len(out)-1]
		if apps := r.Apply(cur, &rules.Context{Hot: hot, MaxSites: 1}); len(apps) > 0 {
			out = append(out, apps[0].Graph)
		}
	}
	return out
}

// TestBuildMatchesReference checks the dense Build against the
// per-component Subgraph reference on the small model suite, two random
// NASNets and states after rule rewrites, with schedule hot-spots, with
// and without naive fission, and with a candidate cap.
func TestBuildMatchesReference(t *testing.T) {
	inputs := append(models.SmallSuite(),
		models.RandomNASNet(1, 24, 32, 64, 16),
		models.RandomNASNet(2, 12, 32, 64, 16))
	steps := 3
	if testing.Short() {
		inputs = inputs[len(inputs)-2:]
		steps = 2
	}
	for _, w := range inputs {
		hot := hotspots(w.G)
		for step, g := range rewritten(w.G, hot, steps) {
			hot := hotspots(g)
			for _, opt := range []Options{{}, {NaiveFission: true}, {MaxCandidates: 8}, {MaxLevel: 2}} {
				want := refBuild(g, hot, opt)
				if want.Size() == 0 && !opt.NaiveFission {
					t.Errorf("%s step %d %+v: the reference finds no candidate", w.Name, step, opt)
				}
				if err := sameTree(Build(g, hot, opt), want); err != nil {
					t.Fatalf("%s step %d %+v: %v", w.Name, step, opt, err)
				}
			}
		}
	}
}
