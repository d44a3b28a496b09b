// Package rules implements M-Rules (§5): the transformation catalog the
// optimizer explores. It contains the scheduling-based rules that decompose
// graph scheduling into graph transformation (Re-materialization, Swapping,
// and their duals, §5.2) and a subset of TASO-style rules (Aggregation and
// Interim transformations, §2.2). F-Tree mutation rules live in
// internal/ftree; internal/opt unifies all three families into one search
// space.
package rules

import (
	"fmt"
	"slices"
	"sort"

	"magis/internal/graph"
	"magis/internal/ops"
)

// Application is one concrete rule application: a transformed copy of the
// graph plus the set of original-graph nodes the transformation touched
// (consumed by incremental scheduling, Algorithm 2).
type Application struct {
	Graph      *graph.Graph
	OldMutated []graph.NodeID
	Rule       string
}

// Site describes where the application rewrote the graph, for diagnostics
// when a candidate later fails: the concrete rule variant (which can be a
// composite like "SwapBatch", distinct from the catalog rule that produced
// it) and the touched original-graph nodes.
func (a Application) Site() string {
	ids := a.OldMutated
	const maxIDs = 8
	suffix := ""
	if len(ids) > maxIDs {
		suffix = fmt.Sprintf(" +%d more", len(ids)-maxIDs)
		ids = ids[:maxIDs]
	}
	return fmt.Sprintf("%s@%v%s", a.Rule, ids, suffix)
}

// Context carries the per-state information rules use to filter sites.
type Context struct {
	// Hot is the memory hot-spot set of the current schedule. With
	// UseHotFilter, re-mat and swap rules only target hot tensors (§5.2's
	// heuristic).
	Hot graph.Set
	// Cover is the union of sub-graphs owned by enabled F-Tree nodes;
	// rules must not transform nodes inside it (§3).
	Cover graph.Set
	// MaxSites caps applications per rule (default 8).
	MaxSites int
	// UseHotFilter enables the hot-spot site filter; disabling it is the
	// naive-sch-rule ablation of §7.2.5.
	UseHotFilter bool
}

func (c *Context) maxSites() int {
	if c.MaxSites > 0 {
		return c.MaxSites
	}
	return 4
}

func (c *Context) blocked(ids ...graph.NodeID) bool {
	for _, id := range ids {
		if c.Cover.Has(id) {
			return true
		}
	}
	return false
}

func (c *Context) isHot(id graph.NodeID) bool {
	return !c.UseHotFilter || c.Hot.Has(id)
}

// Rule is one rewrite family.
type Rule interface {
	// Name identifies the rule in statistics.
	Name() string
	// Apply enumerates bounded, deterministic applications on g.
	Apply(g *graph.Graph, ctx *Context) []Application
}

// All returns the full rule catalog in a deterministic order.
func All() []Rule {
	return []Rule{
		RematRule{},
		RematChainRule{},
		DeRematRule{},
		SwapRule{},
		DeSwapRule{},
		MergeMatmulsRule{},
		MergeConvsRule{},
		AddReassocRule{},
		SliceConcatElimRule{},
	}
}

// rematerializable reports whether v's operator may be recomputed.
func rematerializable(g *graph.Graph, v graph.NodeID) bool {
	n := g.Node(v)
	if _, ok := n.Op.(*ops.Spec); !ok {
		return false // collapsed regions and foreign payloads stay put
	}
	k := n.Op.Kind()
	return !ops.IsLeaf(k) && !ops.IsTransfer(k) && len(n.Ins) > 0
}

// RematRule separates one consumer B from a multi-consumer operator A and
// recomputes A for it (Fig. 8 a/b). The recomputation shortens the
// original tensor's lifetime at the cost of A's latency again.
type RematRule struct{}

// Name implements Rule.
func (RematRule) Name() string { return "Remat" }

// Apply implements Rule.
func (RematRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	var sites [][2]graph.NodeID
	for _, a := range g.NodeIDs() {
		if !rematerializable(g, a) || !ctx.isHot(a) {
			continue
		}
		cons := g.Suc(a)
		if len(cons) < 2 {
			continue
		}
		// Recompute A for its last consumer (by ID — a proxy for "the
		// farthest use", which the re-ordering then exploits).
		b := cons[len(cons)-1]
		if ctx.blocked(a, b) || ops.IsStore(g.Node(b).Op.Kind()) {
			continue
		}
		sites = append(sites, [2]graph.NodeID{a, b})
		if len(out) >= ctx.maxSites() {
			continue
		}
		ng := g.Clone()
		dup := ng.AddNamed(g.Node(a).Name+"'", g.Node(a).Op, g.Node(a).Ins...)
		ng.ReplaceInput(b, a, dup)
		out = append(out, Application{ng, []graph.NodeID{a, b}, "Remat"})
	}
	// Composite applications: rematerialize the largest quarter, half, and
	// all hot sites in one step, with duplicates consuming each other
	// (checkpointing: dropping every anchor's activation and recomputing
	// the forward pass during the backward). Deep stacks of single-site
	// moves are exactly what a budgeted best-first search cannot afford;
	// composites compress those paths (duds are undone later by DeRemat).
	if len(sites) >= 2 {
		var cs []chainSite
		for _, s := range sites {
			cs = append(cs, chainSite{s[0], s[1], []graph.NodeID{s[0]}})
		}
		sort.Slice(cs, func(i, j int) bool {
			bi, bj := g.Node(cs[i].a).OutBytes(), g.Node(cs[j].a).OutBytes()
			if bi != bj {
				return bi > bj
			}
			return cs[i].a < cs[j].a
		})
		prev := 0
		for _, frac := range []int{4, 2, 1} {
			k := (len(cs) + frac - 1) / frac
			if k < 2 || k == prev {
				continue
			}
			prev = k
			app := applyChains(g, ctx, cs[:k])
			app.Rule = "RematBatch"
			out = append(out, app)
		}
	}
	return out
}

// composites builds quarter/half/all bundles over sites, sorted by the
// producer's tensor size descending so the biggest wins come first.
func composites(g *graph.Graph, ctx *Context, sites [][2]graph.NodeID, rule string, apply func(ng *graph.Graph, a, b graph.NodeID)) []Application {
	if len(sites) < 2 {
		return nil
	}
	sorted := append([][2]graph.NodeID(nil), sites...)
	sort.Slice(sorted, func(i, j int) bool {
		bi := g.Node(sorted[i][0]).OutBytes()
		bj := g.Node(sorted[j][0]).OutBytes()
		if bi != bj {
			return bi > bj
		}
		return sorted[i][0] < sorted[j][0]
	})
	var out []Application
	prev := 0
	for _, frac := range []int{4, 2, 1} {
		k := (len(sorted) + frac - 1) / frac
		if k < 2 || k == prev {
			continue
		}
		prev = k
		ng := g.Clone()
		var mutated []graph.NodeID
		for _, s := range sorted[:k] {
			apply(ng, s[0], s[1])
			mutated = append(mutated, s[0], s[1])
		}
		out = append(out, Application{ng, mutated, rule + "Batch"})
	}
	return out
}

// RematChainRule recomputes a whole producer chain for a far consumer —
// checkpoint-style re-materialization. A single-operator re-mat extends
// its inputs' lifetimes and often gains nothing; duplicating the chain up
// to cheap/leaf inputs lets every original in the segment die early, the
// classic sublinear-checkpointing move that DTR finds dynamically.
type RematChainRule struct{}

// Name implements Rule.
func (RematChainRule) Name() string { return "RematChain" }

// chainDepth bounds how far a recompute chain may reach.
const chainDepth = 8

// chainSite is one (tensor, far consumer, recompute chain) candidate.
type chainSite struct {
	a, b  graph.NodeID
	chain []graph.NodeID
}

// chainSites enumerates checkpoint candidates: hot multi-consumer tensors
// with their bounded recomputable ancestor chains. Chains stop at other
// candidates' anchors, so composite application recomputes disjoint
// segments between checkpoints — each duplicate's lifetime spans one
// segment of the backward pass, not the whole of it.
func chainSites(g *graph.Graph, ctx *Context) []chainSite {
	type anchor struct{ a, b graph.NodeID }
	var anchors []anchor
	var anchorIDs []graph.NodeID
	for _, a := range g.NodeIDs() {
		if !rematerializable(g, a) || !ctx.isHot(a) {
			continue
		}
		cons := g.Suc(a)
		if len(cons) < 2 {
			continue
		}
		b := cons[len(cons)-1]
		if ctx.blocked(a, b) || ops.IsStore(g.Node(b).Op.Kind()) {
			continue
		}
		anchors = append(anchors, anchor{a, b})
		anchorIDs = append(anchorIDs, a)
	}
	anchorSet := graph.NewSet(anchorIDs...)
	var sites []chainSite
	for _, an := range anchors {
		chain := []graph.NodeID{an.a}
		frontier := []graph.NodeID{an.a}
		for d := 0; d < chainDepth && len(frontier) > 0; d++ {
			var next []graph.NodeID
			for _, v := range frontier {
				for _, p := range g.Pre(v) {
					if !slices.Contains(chain, p) && !anchorSet.Has(p) && rematerializable(g, p) && !ctx.blocked(p) {
						chain = append(chain, p)
						next = append(next, p)
					}
				}
			}
			frontier = next
		}
		if len(chain) < 2 {
			continue // plain RematRule covers the single-op case
		}
		sites = append(sites, chainSite{an.a, an.b, chain})
	}
	return sites
}

// applyChains duplicates the union of the sites' chains once (shared
// duplicates — overlapping chains recompute each ancestor a single time,
// checkpoint-style) and rewires each site's far consumer.
func applyChains(g *graph.Graph, ctx *Context, sites []chainSite) Application {
	var members, mutated []graph.NodeID
	for _, s := range sites {
		members = append(members, s.chain...)
		mutated = append(mutated, s.a, s.b)
	}
	union := graph.NewSet(members...)
	ng := g.Clone()
	dup := make(map[graph.NodeID]graph.NodeID, len(union))
	for _, v := range g.TopoWithin(union) {
		node := g.Node(v)
		ins := make([]graph.NodeID, len(node.Ins))
		for i, in := range node.Ins {
			if d, ok := dup[in]; ok {
				ins[i] = d
			} else {
				ins[i] = in
			}
		}
		dup[v] = ng.AddNamed(node.Name+"'", node.Op, ins...)
	}
	for _, s := range sites {
		ng.ReplaceInput(s.b, s.a, dup[s.a])
	}
	// Every duplicate is consumed by the duplicate of its chain consumer
	// (chains are closed towards their anchors), so no dead nodes arise.
	return Application{ng, mutated, "RematChain"}
}

// Apply implements Rule.
func (RematChainRule) Apply(g *graph.Graph, ctx *Context) []Application {
	sites := chainSites(g, ctx)
	var out []Application
	for i, s := range sites {
		if i >= ctx.maxSites() {
			break
		}
		out = append(out, applyChains(g, ctx, []chainSite{s}))
	}
	// Graduated composites over the largest tensors, like SwapRule's.
	if len(sites) >= 2 {
		sorted := append([]chainSite(nil), sites...)
		sort.Slice(sorted, func(i, j int) bool {
			bi, bj := g.Node(sorted[i].a).OutBytes(), g.Node(sorted[j].a).OutBytes()
			if bi != bj {
				return bi > bj
			}
			return sorted[i].a < sorted[j].a
		})
		prev := 0
		for _, frac := range []int{4, 2, 1} {
			k := (len(sorted) + frac - 1) / frac
			if k < 2 || k == prev {
				continue
			}
			prev = k
			app := applyChains(g, ctx, sorted[:k])
			app.Rule = "RematChainBatch"
			out = append(out, app)
		}
	}
	return out
}

// DeRematRule merges two operators of identical kind, attributes, and
// inputs back into one (Fig. 8 c/d) — the dual of RematRule.
type DeRematRule struct{}

// Name implements Rule.
func (DeRematRule) Name() string { return "DeRemat" }

// Apply implements Rule.
func (DeRematRule) Apply(g *graph.Graph, ctx *Context) []Application {
	// Group candidates by signature for O(V) matching.
	type sig struct {
		kind, attr string
		ins        string
	}
	groups := make(map[sig][]graph.NodeID)
	for _, v := range g.NodeIDs() {
		n := g.Node(v)
		if ops.IsLeaf(n.Op.Kind()) || ops.IsTransfer(n.Op.Kind()) {
			continue
		}
		var insKey []byte
		for _, in := range n.Ins {
			insKey = append(insKey, byte(in), byte(in>>8), byte(in>>16), byte(in>>24))
		}
		s := sig{n.Op.Kind(), n.Op.AttrKey(), string(insKey)}
		groups[s] = append(groups[s], v)
	}
	var sigs []sig
	for s, vs := range groups {
		if len(vs) >= 2 {
			sigs = append(sigs, s)
		}
	}
	sort.Slice(sigs, func(i, j int) bool {
		a, b := groups[sigs[i]][0], groups[sigs[j]][0]
		return a < b
	})
	var out []Application
	for _, s := range sigs {
		if len(out) >= ctx.maxSites() {
			break
		}
		vs := groups[s]
		keep, dup := vs[0], vs[1]
		if ctx.blocked(keep, dup) {
			continue
		}
		ng := g.Clone()
		ng.RedirectConsumers(dup, keep)
		if err := ng.Remove(dup); err != nil {
			continue
		}
		out = append(out, Application{ng, []graph.NodeID{keep, dup}, "DeRemat"})
	}
	return out
}

// SwapRule inserts Store+Load between an operator A and one consumer B
// (Fig. 8 e), moving A's tensor to host memory in between.
type SwapRule struct{}

// Name implements Rule.
func (SwapRule) Name() string { return "Swap" }

// Apply implements Rule.
func (SwapRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	var sites [][2]graph.NodeID
	for _, a := range g.NodeIDs() {
		n := g.Node(a)
		if _, ok := n.Op.(*ops.Spec); !ok {
			continue
		}
		if ops.IsTransfer(n.Op.Kind()) || !ctx.isHot(a) || n.OutBytes() == 0 {
			continue
		}
		cons := g.Suc(a)
		if len(cons) == 0 {
			continue
		}
		// One swap chain per tensor: skip if A already feeds a Store.
		hasStore := false
		for _, c := range cons {
			if ops.IsStore(g.Node(c).Op.Kind()) {
				hasStore = true
				break
			}
		}
		if hasStore {
			continue
		}
		b := cons[len(cons)-1]
		if ctx.blocked(a, b) || ops.IsLoad(g.Node(b).Op.Kind()) {
			continue
		}
		sites = append(sites, [2]graph.NodeID{a, b})
		if len(out) >= ctx.maxSites() {
			continue
		}
		ng := g.Clone()
		sh, dt := n.Op.OutShape(), n.Op.DType()
		st := ng.Add(ops.NewStore(sh, dt), a)
		ld := ng.Add(ops.NewLoad(sh, dt), st)
		ng.ReplaceInput(b, a, ld)
		out = append(out, Application{ng, []graph.NodeID{a, b}, "Swap"})
	}
	// Composite applications: swap out the largest quarter/half/all hot
	// tensors at once (see RematRule); superfluous swaps are undone by
	// DeSwap.
	out = append(out, composites(g, ctx, sites, "Swap", func(ng *graph.Graph, a, b graph.NodeID) {
		sh, dt := ng.Node(a).Op.OutShape(), ng.Node(a).Op.DType()
		st := ng.Add(ops.NewStore(sh, dt), a)
		ld := ng.Add(ops.NewLoad(sh, dt), st)
		ng.ReplaceInput(b, a, ld)
	})...)
	return out
}

// DeSwapRule removes a Store/Load pair (Fig. 8 f) — the dual of SwapRule.
type DeSwapRule struct{}

// Name implements Rule.
func (DeSwapRule) Name() string { return "DeSwap" }

// Apply implements Rule.
func (DeSwapRule) Apply(g *graph.Graph, ctx *Context) []Application {
	var out []Application
	for _, ld := range g.NodeIDs() {
		if len(out) >= ctx.maxSites() {
			break
		}
		if !ops.IsLoad(g.Node(ld).Op.Kind()) {
			continue
		}
		pre := g.Pre(ld)
		if len(pre) != 1 || !ops.IsStore(g.Node(pre[0]).Op.Kind()) {
			continue
		}
		st := pre[0]
		src := g.Pre(st)
		if len(src) != 1 || ctx.blocked(ld, st, src[0]) {
			continue
		}
		ng := g.Clone()
		ng.RedirectConsumers(ld, src[0])
		if err := ng.Remove(ld); err != nil {
			continue
		}
		// The store may still serve other loads; remove it only when dead.
		if len(ng.Suc(st)) == 0 {
			if err := ng.Remove(st); err != nil {
				continue
			}
		}
		out = append(out, Application{ng, []graph.NodeID{st, ld, src[0]}, "DeSwap"})
	}
	return out
}
