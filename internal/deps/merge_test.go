package deps

import (
	"fmt"
	"testing"

	"repro/internal/regions"
)

// The coalescing regression tests: deep weakwait cascades must not
// accumulate map entries in ancestor domains or long-lived fragments. See
// drainedCellsEqual / releasedEqual in engine.go.

// countDomainEntries returns the total entry count across a node's domain
// maps.
func countDomainEntries(n *Node) int {
	total := 0
	if t := n.maps.Load(); t != nil {
		for _, e := range t.ents[:t.n.Load()] {
			if e.dm != nil {
				total += e.dm.Count()
			}
		}
	}
	return total
}

// TestDeepCascadeDomainsStayCompact builds a recursive weakwait chain —
// each level owns a halved range of its parent — completes it bottom-up,
// and checks the root's domain did not retain one cell per descendant.
func TestDeepCascadeDomainsStayCompact(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)

	const span = int64(1 << 12)
	type lvl struct {
		n  *Node
		iv regions.Interval
	}
	// A full binary tree of weakwait-style nodes, leaves strong.
	var leaves []*Node
	var build func(parent *Node, iv regions.Interval, depth int)
	build = func(parent *Node, iv regions.Interval, depth int) {
		n := e.NewNode(parent, fmt.Sprintf("n%d-%d", depth, iv.Lo), nil)
		weak := depth < 6
		e.Register(n, []Spec{{Data: 0, Type: InOut, Weak: weak, Ivs: []regions.Interval{iv}}})
		if !weak {
			leaves = append(leaves, n)
			return
		}
		mid := (iv.Lo + iv.Hi) / 2
		build(n, regions.Interval{Lo: iv.Lo, Hi: mid}, depth+1)
		build(n, regions.Interval{Lo: mid, Hi: iv.Hi}, depth+1)
		// Weakwait: the body created its children and returned.
		e.BodyDoneInto(n, nil)
	}
	build(root, regions.Interval{Lo: 0, Hi: span}, 0)

	for _, l := range leaves {
		e.CompleteInto(l, nil)
	}
	if n := e.LiveFragments(); n != 0 {
		t.Fatalf("%d fragments unreleased after full drain", n)
	}
	// The root's domain saw the top node's fragment release piece by piece
	// (one piece per leaf, worst case); coalescing must keep it at O(1).
	if got := countDomainEntries(root); got > 4 {
		t.Errorf("root domain holds %d entries after drain; coalescing failed", got)
	}
}

func TestMergeRangeProperties(t *testing.T) {
	m := regions.NewMap[int](nil)
	for i := int64(0); i < 100; i++ {
		m.Set(regions.Iv(i, i+1), int(i%3))
	}
	if m.Count() != 100 {
		t.Fatalf("setup: %d entries", m.Count())
	}
	// Merge equal neighbors: pattern 0,1,2 repeating — nothing merges.
	m.MergeRange(regions.Iv(0, 100), func(a, b int) bool { return a == b })
	if m.Count() != 100 {
		t.Errorf("unequal neighbors merged: %d", m.Count())
	}
	// Make everything equal, merge a subrange plus its neighbors.
	m.VisitRange(regions.Iv(0, 100), func(_ regions.Interval, v *int) { *v = 7 })
	m.MergeRange(regions.Iv(40, 60), func(a, b int) bool { return a == b })
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// [39,61) should now be one entry (subrange plus one neighbor on each
	// side).
	if got := m.Get(int64(50)); got == nil || *got != 7 {
		t.Fatal("value lost in merge")
	}
	before := m.Count()
	if before >= 100-18 {
		t.Errorf("merge removed too few entries: %d left", before)
	}
	// Full merge collapses to a single entry.
	m.MergeRange(regions.Iv(0, 100), func(a, b int) bool { return a == b })
	if m.Count() != 1 {
		t.Errorf("full merge left %d entries, want 1", m.Count())
	}
	if m.CoveredLen() != 100 {
		t.Errorf("coverage changed: %d", m.CoveredLen())
	}
}

func TestMergeRangeGapsNotBridged(t *testing.T) {
	m := regions.NewMap[int](nil)
	m.Set(regions.Iv(0, 10), 1)
	m.Set(regions.Iv(20, 30), 1) // gap [10,20)
	m.MergeRange(regions.Iv(0, 30), func(a, b int) bool { return a == b })
	if m.Count() != 2 {
		t.Fatalf("entries across a gap merged: %v", m)
	}
}
