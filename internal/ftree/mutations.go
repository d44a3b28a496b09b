package ftree

import (
	"fmt"

	"magis/internal/graph"
)

// RuleKind identifies one of the four F-Tree mutation rules of §5.1.
type RuleKind int

const (
	// Enable splits a candidate: a disabled leaf without enabled
	// ancestors, or the disabled parent of a top-level enabled node
	// (creating nested fission).
	Enable RuleKind = iota
	// Lift moves fission one level up: disable a top-level enabled node
	// and enable its parent.
	Lift
	// Disable un-splits an enabled node with no enabled descendants.
	Disable
	// Mutate increases an enabled node's fission number to the next
	// divisor of the dimension length.
	Mutate
)

// String names the rule.
func (k RuleKind) String() string {
	switch k {
	case Enable:
		return "Enable"
	case Lift:
		return "Lift"
	case Disable:
		return "Disable"
	case Mutate:
		return "Mutate"
	}
	return fmt.Sprintf("RuleKind(%d)", int(k))
}

// Mutation is one applicable rule application. Nodes are addressed by
// child-index paths from the forest roots so mutations survive Clone.
type Mutation struct {
	Kind RuleKind
	Path []int
	// NewN is the fission number the target (or, for Lift, the parent)
	// takes after the mutation.
	NewN int
}

// NodeAt resolves a path to its node, or nil.
func (t *Tree) NodeAt(path []int) *Node {
	if len(path) == 0 || path[0] >= len(t.Roots) {
		return nil
	}
	n := t.Roots[path[0]]
	for _, i := range path[1:] {
		if i >= len(n.Children) {
			return nil
		}
		n = n.Children[i]
	}
	return n
}

// smallestParts returns the smallest legal fission number >= 2 for n's
// candidate, or 0 when none exists.
func smallestParts(g *graph.Graph, n *Node) int {
	m := n.T.MaxParts(g)
	for k := 2; k <= m; k++ {
		if m%k == 0 {
			return k
		}
	}
	return 0
}

// validOn reports whether the candidate is still applicable on g: its
// nodes exist and the transformation survives full re-validation
// (connectivity, convexity, dimension coverage). Graph rewrites elsewhere
// can strand or corrupt dormant candidates; those are skipped rather than
// mutated.
func (n *Node) validOn(g *graph.Graph) bool {
	for _, v := range n.T.S {
		if !g.Has(v) {
			return false
		}
	}
	for v := range n.T.Choice {
		if !g.Has(v) {
			return false
		}
	}
	return n.T.ValidateOn(g) == nil
}

// Mutations enumerates every applicable mutation on the current tree.
func (t *Tree) Mutations(g *graph.Graph) []Mutation {
	var out []Mutation
	var rec func(n *Node, path []int)
	rec = func(n *Node, path []int) {
		p := append([]int(nil), path...)
		if !n.validOn(g) {
			for i, c := range n.Children {
				rec(c, append(path, i))
			}
			return
		}
		switch {
		case !n.Enabled():
			// Enable a disabled candidate with no enabled ancestor and no
			// enabled descendant. The paper enables leaves only and climbs
			// with Lift; enabling any free candidate directly is the
			// transitive closure of Enable+Lift chains and reaches large
			// regions in one search step (the collapsed evaluation makes
			// the wider step cheap).
			if !n.HasEnabledAncestor() && !n.HasEnabledDescendant() {
				if k := smallestParts(g, n); k > 0 {
					out = append(out, Mutation{Enable, p, k})
				}
			}
			// The disabled parent of a top-level enabled child can also be
			// enabled, nesting fission (Fig. 7a, second case).
			if !n.HasEnabledAncestor() && n.HasEnabledDescendant() {
				for _, c := range n.Children {
					if c.Enabled() {
						if k := smallestParts(g, n); k > 0 {
							out = append(out, Mutation{Enable, p, k})
						}
						break
					}
				}
			}
		default: // enabled
			if !n.HasEnabledAncestor() && n.Parent != nil && !n.Parent.Enabled() && n.Parent.validOn(g) {
				if k := smallestParts(g, n.Parent); k > 0 {
					out = append(out, Mutation{Lift, p, k})
				}
			}
			if !n.HasEnabledDescendant() {
				out = append(out, Mutation{Disable, p, 1})
			}
			if next := n.T.NextParts(g, n.N); next > 0 {
				out = append(out, Mutation{Mutate, p, next})
			}
		}
		for i, c := range n.Children {
			rec(c, append(path, i))
		}
	}
	for i, r := range t.Roots {
		rec(r, []int{i})
	}
	return out
}

// Apply performs the mutation in place. The caller clones the tree first
// when exploring alternatives.
func (t *Tree) Apply(m Mutation) error {
	n := t.NodeAt(m.Path)
	if n == nil {
		return fmt.Errorf("ftree: no node at path %v", m.Path)
	}
	switch m.Kind {
	case Enable:
		if n.Enabled() {
			return fmt.Errorf("ftree: Enable on enabled node")
		}
		n.N = m.NewN
	case Lift:
		if !n.Enabled() || n.Parent == nil {
			return fmt.Errorf("ftree: Lift needs an enabled non-root node")
		}
		n.N = 1
		n.Parent.N = m.NewN
	case Disable:
		if !n.Enabled() {
			return fmt.Errorf("ftree: Disable on disabled node")
		}
		n.N = 1
	case Mutate:
		if !n.Enabled() {
			return fmt.Errorf("ftree: Mutate on disabled node")
		}
		n.N = m.NewN
	default:
		return fmt.Errorf("ftree: unknown rule %v", m.Kind)
	}
	return nil
}
