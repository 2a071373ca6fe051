package deps

import (
	"testing"

	"repro/internal/regions"
)

// Edge cases of the release directive interacting with fragmentation and
// coalescing: partial releases split a fragment; the rest must stay
// enforced, and the engine must still drain to zero live fragments.

type readyList struct{ names []string }

func (r *readyList) add(ns []*Node) {
	for _, n := range ns {
		r.names = append(r.names, n.Label())
	}
}

func (r *readyList) has(name string) bool {
	for _, n := range r.names {
		if n == name {
			return true
		}
	}
	return false
}

func TestReleasePartialSubInterval(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	var ready readyList

	// Holder owns [0,100) strongly and runs immediately.
	holder := e.NewNode(root, "holder", nil)
	if !e.Register(holder, []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 100)}}}) {
		t.Fatal("holder should be ready")
	}
	// Two successors on the two halves.
	lo := e.NewNode(root, "lo", nil)
	if e.Register(lo, []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 50)}}}) {
		t.Fatal("lo must wait for holder")
	}
	hi := e.NewNode(root, "hi", nil)
	if e.Register(hi, []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(50, 100)}}}) {
		t.Fatal("hi must wait for holder")
	}

	// Holder releases only [0,50): lo becomes ready, hi must not.
	ready.add(e.ReleaseRegionsInto(holder, []Spec{{Data: 0, Ivs: []regions.Interval{regions.Iv(0, 50)}}}, nil))
	if !ready.has("lo") {
		t.Error("lo not readied by the partial release")
	}
	if ready.has("hi") {
		t.Error("hi readied though [50,100) is still held")
	}

	// Completion of the holder releases the rest.
	ready.add(e.CompleteInto(holder, nil))
	if !ready.has("hi") {
		t.Error("hi not readied by holder completion")
	}
	e.CompleteInto(lo, nil)
	e.CompleteInto(hi, nil)
	if n := e.LiveFragments(); n != 0 {
		t.Errorf("%d fragments live after full drain", n)
	}
}

func TestReleaseManySlicesThenComplete(t *testing.T) {
	// Release a fragment one slice at a time (worst-case fragmentation for
	// the piece map), then complete; coalescing must keep things exact.
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	holder := e.NewNode(root, "holder", nil)
	e.Register(holder, []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 128)}}})

	succ := e.NewNode(root, "succ", nil)
	if e.Register(succ, []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(0, 128)}}}) {
		t.Fatal("succ must wait")
	}
	var ready readyList
	for i := int64(0); i < 127; i++ {
		ready.add(e.ReleaseRegionsInto(holder, []Spec{{Data: 0, Ivs: []regions.Interval{regions.Iv(i, i+1)}}}, nil))
		if ready.has("succ") {
			t.Fatalf("succ readied after releasing only [0,%d)", i+1)
		}
	}
	ready.add(e.ReleaseRegionsInto(holder, []Spec{{Data: 0, Ivs: []regions.Interval{regions.Iv(127, 128)}}}, nil))
	if !ready.has("succ") {
		t.Fatal("succ not readied after the last slice")
	}
	e.CompleteInto(holder, nil)
	e.CompleteInto(succ, nil)
	if n := e.LiveFragments(); n != 0 {
		t.Errorf("%d fragments live after drain", n)
	}
}

func TestReleaseOnWeakParentHandsOverToLiveChild(t *testing.T) {
	// A weak parent releases a region a live child covers: the hand-over
	// must fire when the child completes, not at the release.
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)

	parent := e.NewNode(root, "parent", nil)
	e.Register(parent, []Spec{{Data: 0, Type: InOut, Weak: true, Ivs: []regions.Interval{regions.Iv(0, 100)}}})
	child := e.NewNode(parent, "child", nil)
	if !e.Register(child, []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(20, 40)}}}) {
		t.Fatal("child should be ready (weak parent, no predecessors)")
	}
	succ := e.NewNode(root, "succ", nil)
	if e.Register(succ, []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(0, 100)}}}) {
		t.Fatal("succ must wait for the parent subtree")
	}

	var ready readyList
	// Early release of the whole region: [0,20) and [40,100) release
	// immediately; [20,40) is handed over to the live child.
	ready.add(e.ReleaseRegionsInto(parent, []Spec{{Data: 0, Ivs: []regions.Interval{regions.Iv(0, 100)}}}, nil))
	if ready.has("succ") {
		t.Fatal("succ readied while the child still holds [20,40)")
	}
	ready.add(e.CompleteInto(child, nil))
	if !ready.has("succ") {
		t.Fatal("succ not readied by the covering child's completion")
	}
	e.CompleteInto(parent, nil)
	e.CompleteInto(succ, nil)
	if n := e.LiveFragments(); n != 0 {
		t.Errorf("%d fragments live after drain", n)
	}
}

func TestStridedSpecsThroughEngine(t *testing.T) {
	// Multi-interval specs (the strided shapes of listing 7) fragment and
	// link per interval.
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)

	writer := e.NewNode(root, "writer", nil)
	e.Register(writer, []Spec{{Data: 0, Type: Out,
		Ivs: regions.Strided(0, 1, 10, 5)}}) // {0,10,20,30,40}
	hit := e.NewNode(root, "hit", nil)
	if e.Register(hit, []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(20, 21)}}}) {
		t.Fatal("reader of a written stride element must wait")
	}
	miss := e.NewNode(root, "miss", nil)
	if !e.Register(miss, []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(21, 30)}}}) {
		t.Fatal("reader between stride elements must not wait")
	}
	var ready readyList
	ready.add(e.CompleteInto(writer, nil))
	if !ready.has("hit") {
		t.Fatal("strided writer completion did not ready its reader")
	}
	e.CompleteInto(hit, nil)
	e.CompleteInto(miss, nil)
	if n := e.LiveFragments(); n != 0 {
		t.Errorf("%d fragments live after drain", n)
	}
}
