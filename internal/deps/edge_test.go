package deps

import (
	"testing"

	"repro/internal/regions"
)

// Edge cases and failure-injection tests for the dependency engine.

// TestWeakwaitNoChildren: a weakwait task that created no children releases
// everything at body end.
func TestWeakwaitNoChildren(t *testing.T) {
	s := newSim(t, u(4))
	w := &simTask{label: "W", specs: []Spec{inout(regions.Iv(0, 4))}, weakwait: true}
	r := &simTask{label: "R", specs: []Spec{in(regions.Iv(0, 4))}}
	s.start([]*simTask{w, r})
	s.step("W")
	if !s.isReady("R") {
		t.Fatal("weakwait with no children must release at body end")
	}
	s.finish()
}

// TestWeakAccessNeverTouched: a weak access whose region no child ever
// uses must still forward ordering to successors (release on satisfaction).
func TestWeakAccessNeverTouched(t *testing.T) {
	s := newSim(t, u(8))
	w := &simTask{label: "W", specs: []Spec{inout(regions.Iv(0, 8))}}
	// P covers [0,8) weakly but its child only touches [0,4).
	c := &simTask{label: "C", specs: []Spec{inout(regions.Iv(0, 4))}}
	p := &simTask{label: "P", specs: []Spec{weakinout(regions.Iv(0, 8))}, weakwait: true, children: []*simTask{c}}
	r := &simTask{label: "R", specs: []Spec{in(regions.Iv(4, 8))}}
	s.start([]*simTask{w, p, r})
	if !s.isReady("P") {
		t.Fatal("weak task should be ready")
	}
	s.step("P")
	// The untouched piece [4,8) of P's weak access is done (weakwait) but
	// unsatisfied: W has not run. R must NOT be ready.
	if s.isReady("R") {
		t.Fatal("R must wait for W through P's weak access")
	}
	s.step("W")
	if !s.isReady("R") {
		t.Fatal("W's release should flow through P's released weak piece to R")
	}
	s.finish()
}

// TestReleaseUnknownData: releasing a region of data the task never
// declared is a no-op.
func TestReleaseUnknownData(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	n := e.NewNode(root, "n", nil)
	e.Register(n, []Spec{inout(regions.Iv(0, 4))})
	// Unknown data id and unknown region: both no-ops.
	e.ReleaseRegionsInto(n, []Spec{{Data: 99, Ivs: []regions.Interval{regions.Iv(0, 4)}}}, nil)
	e.ReleaseRegionsInto(n, []Spec{{Data: d0, Ivs: []regions.Interval{regions.Iv(100, 200)}}}, nil)
	e.CompleteInto(n, nil)
}

// TestReleaseTwiceIdempotent: releasing the same region twice must not
// double-release.
func TestReleaseTwiceIdempotent(t *testing.T) {
	s := newSim(t, u(8))
	t1 := &simTask{label: "T1", specs: []Spec{inout(regions.Iv(0, 8))},
		releaseAfter: []Spec{inout(regions.Iv(0, 8))}}
	t2 := &simTask{label: "T2", specs: []Spec{in(regions.Iv(0, 8))}}
	s.start([]*simTask{t1, t2})
	s.step("T1")
	if !s.isReady("T2") {
		t.Fatal("T2 should be ready after release")
	}
	// Second release (the region is gone from the access map): no-op.
	s.eng.ReleaseRegionsInto(s.nodes[findNode(s, "T1")].node, []Spec{inout(regions.Iv(0, 8))}, nil)
	s.finish()
}

func findNode(s *sim, label string) *Node {
	for n, sn := range s.nodes {
		if sn.def.label == label {
			return n
		}
	}
	return nil
}

// TestPartialCoverChildren: children covering only parts of the parent's
// weak access; the uncovered middle releases at body end, covered flanks
// hand over.
func TestPartialCoverChildren(t *testing.T) {
	s := newSim(t, u(12))
	cl := &simTask{label: "CL", specs: []Spec{inout(regions.Iv(0, 4))}}
	cr := &simTask{label: "CR", specs: []Spec{inout(regions.Iv(8, 12))}}
	p := &simTask{label: "P", specs: []Spec{weakinout(regions.Iv(0, 12))}, weakwait: true,
		children: []*simTask{cl, cr}}
	rm := &simTask{label: "RM", specs: []Spec{in(regions.Iv(4, 8))}}  // middle: only P
	rl := &simTask{label: "RL", specs: []Spec{in(regions.Iv(0, 4))}}  // left: CL
	rr := &simTask{label: "RR", specs: []Spec{in(regions.Iv(8, 12))}} // right: CR
	s.start([]*simTask{p, rm, rl, rr})
	s.step("P")
	if !s.isReady("RM") {
		t.Fatal("middle region released at weakwait (no covering child)")
	}
	if s.isReady("RL") || s.isReady("RR") {
		t.Fatal("flank regions are handed over to live children")
	}
	s.step("CL")
	if !s.isReady("RL") || s.isReady("RR") {
		t.Fatal("left released by CL; right still held by CR")
	}
	s.step("CR")
	if !s.isReady("RR") {
		t.Fatal("right released by CR")
	}
	s.finish()
}

// TestSiblingsAfterWeakwaitHandover: once handed over, later accesses in
// the outer domain fragment against the handed-over pieces correctly.
func TestSiblingsAfterWeakwaitHandover(t *testing.T) {
	s := newSim(t, u(8))
	c := &simTask{label: "C", specs: []Spec{inout(regions.Iv(0, 8))}}
	p := &simTask{label: "P", specs: []Spec{weakinout(regions.Iv(0, 8))}, weakwait: true,
		children: []*simTask{c}}
	// Two successors over different halves: both wait for C (it covers
	// everything), and both become ready exactly when C completes.
	r1 := &simTask{label: "R1", specs: []Spec{in(regions.Iv(0, 4))}}
	r2 := &simTask{label: "R2", specs: []Spec{inout(regions.Iv(4, 8))}}
	s.start([]*simTask{p, r1, r2})
	s.step("P")
	if s.isReady("R1") || s.isReady("R2") {
		t.Fatal("successors must wait for the covering child")
	}
	s.step("C")
	if !s.isReady("R1") || !s.isReady("R2") {
		t.Fatal("both successors ready after the child released")
	}
	s.finish()
}

// TestEmptyIntervalSpecsIgnored: empty intervals in a spec are skipped.
func TestEmptyIntervalSpecsIgnored(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	n := e.NewNode(root, "n", nil)
	ready := e.Register(n, []Spec{{Data: d0, Type: InOut, Ivs: []regions.Interval{regions.Iv(5, 5), regions.Iv(7, 3)}}})
	if !ready {
		t.Fatal("task with only empty intervals must be ready")
	}
	if st := e.Stats(); st.Fragments != 0 {
		t.Fatalf("no fragments expected, got %d", st.Fragments)
	}
}

// TestDoubleRegisterPanics: registering a node twice is an engine-use bug.
func TestDoubleRegisterPanics(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	n := e.NewNode(root, "n", nil)
	e.Register(n, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register(n, nil)
}

// TestRootWithSpecsPanics: the root cannot have dependencies.
func TestRootWithSpecsPanics(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register(root, []Spec{inout(regions.Iv(0, 1))})
}

// TestLongWeakChain: a 40-deep nesting chain of weakwait tasks propagates
// satisfaction and release through every level.
func TestLongWeakChain(t *testing.T) {
	const depth = 40
	r := regions.Iv(0, 4)
	leaf := &simTask{label: "leaf", specs: []Spec{inout(r)}}
	node := leaf
	for i := 0; i < depth; i++ {
		node = &simTask{
			label:    labelN("n", i),
			specs:    []Spec{weakinout(r)},
			weakwait: true,
			children: []*simTask{node},
		}
	}
	w := &simTask{label: "W", specs: []Spec{inout(r)}}
	after := &simTask{label: "A", specs: []Spec{in(r)}}
	s := newSim(t, u(4))
	s.start([]*simTask{w, node, after})
	// Walk down the chain: every level is immediately ready (weak).
	for i := depth - 1; i >= 0; i-- {
		s.step(labelN("n", i))
	}
	if s.isReady("leaf") {
		t.Fatal("leaf must wait for W through the whole chain")
	}
	s.step("W")
	if !s.isReady("leaf") {
		t.Fatal("satisfaction must traverse the 40-level weak chain")
	}
	s.step("leaf")
	if !s.isReady("A") {
		t.Fatal("release must traverse the 40-level hand-over chain")
	}
	s.finish()
}

func labelN(p string, i int) string {
	return p + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// TestManyFragments: heavy fragmentation (staircase of overlapping
// accesses) keeps invariants and ordering.
func TestManyFragments(t *testing.T) {
	var tasks []*simTask
	// Writers at offsets 0,3,6,... each covering 8 elements: every new
	// access splits the previous ones.
	for i := int64(0); i+8 <= 40; i += 3 {
		tasks = append(tasks, &simTask{
			label: labelN("w", int(i)),
			specs: []Spec{inout(regions.Iv(i, i+8))},
		})
	}
	tasks = append(tasks, &simTask{label: "R", specs: []Spec{in(regions.Iv(0, 40))}})
	for seed := int64(0); seed < 10; seed++ {
		s := newSim(t, u(40))
		s.runRandom(tasks, seed)
	}
}

// TestInterleavedWeakStrongSiblings: a weak cover and strong siblings over
// the same region in one domain.
func TestInterleavedWeakStrongSiblings(t *testing.T) {
	s := newSim(t, u(8))
	c := &simTask{label: "C", specs: []Spec{inout(regions.Iv(0, 8))}}
	p := &simTask{label: "P", specs: []Spec{weakinout(regions.Iv(0, 8))}, weakwait: true, children: []*simTask{c}}
	w := &simTask{label: "W", specs: []Spec{inout(regions.Iv(0, 8))}}
	p2c := &simTask{label: "C2", specs: []Spec{in(regions.Iv(0, 8))}}
	p2 := &simTask{label: "P2", specs: []Spec{weakin(regions.Iv(0, 8))}, weakwait: true, children: []*simTask{p2c}}
	s.start([]*simTask{p, w, p2})
	s.step("P")
	s.step("P2") // instantiates C2, which waits for W through P2
	if s.isReady("W") {
		t.Fatal("W must wait for P's subtree (C)")
	}
	s.step("C")
	if !s.isReady("W") {
		t.Fatal("W ready after C released through P's hand-over")
	}
	if s.isReady("C2") {
		t.Fatal("C2 must wait for W")
	}
	s.step("W")
	if !s.isReady("C2") {
		t.Fatal("C2 ready after W")
	}
	s.finish()
}
