package deps

import (
	"testing"

	"repro/internal/regions"
)

const d0 = DataID(0)

func in(ivs ...regions.Interval) Spec     { return Spec{Data: d0, Type: In, Ivs: ivs} }
func out(ivs ...regions.Interval) Spec    { return Spec{Data: d0, Type: Out, Ivs: ivs} }
func inout(ivs ...regions.Interval) Spec  { return Spec{Data: d0, Type: InOut, Ivs: ivs} }
func weakin(ivs ...regions.Interval) Spec { return Spec{Data: d0, Type: In, Weak: true, Ivs: ivs} }
func weakinout(ivs ...regions.Interval) Spec {
	return Spec{Data: d0, Type: InOut, Weak: true, Ivs: ivs}
}
func weakout(ivs ...regions.Interval) Spec { return Spec{Data: d0, Type: Out, Weak: true, Ivs: ivs} }

func u(n int64) map[DataID]int64 { return map[DataID]int64{d0: n} }

// TestFlatRAW: a reader must wait for the preceding writer (same domain).
func TestFlatRAW(t *testing.T) {
	s := newSim(t, u(10))
	w := &simTask{label: "W", specs: []Spec{inout(regions.Iv(0, 10))}}
	r := &simTask{label: "R", specs: []Spec{in(regions.Iv(0, 10))}}
	s.start([]*simTask{w, r})
	if s.isReady("R") {
		t.Fatal("reader ready before writer finished")
	}
	s.step("W")
	if !s.isReady("R") {
		t.Fatal("reader not ready after writer completed")
	}
	s.finish()
}

// TestFlatReadersConcurrent: readers after one writer are all ready at once.
func TestFlatReadersConcurrent(t *testing.T) {
	s := newSim(t, u(10))
	w := &simTask{label: "W", specs: []Spec{out(regions.Iv(0, 10))}}
	r1 := &simTask{label: "R1", specs: []Spec{in(regions.Iv(0, 5))}}
	r2 := &simTask{label: "R2", specs: []Spec{in(regions.Iv(3, 10))}}
	w2 := &simTask{label: "W2", specs: []Spec{inout(regions.Iv(0, 10))}}
	s.start([]*simTask{w, r1, r2, w2})
	s.step("W")
	if !s.isReady("R1") || !s.isReady("R2") {
		t.Fatalf("both readers should be ready, ready=%v", s.readyLabels())
	}
	if s.isReady("W2") {
		t.Fatal("second writer ready before readers (WAR violated)")
	}
	s.step("R1")
	if s.isReady("W2") {
		t.Fatal("second writer ready with one reader outstanding")
	}
	s.step("R2")
	if !s.isReady("W2") {
		t.Fatal("second writer not ready after both readers")
	}
	s.finish()
}

// TestFlatPartialOverlap: dependencies over partially overlapping sections
// (§VII) — a successor overlapping two predecessors waits for both, and a
// successor overlapping only one waits only for that one.
func TestFlatPartialOverlap(t *testing.T) {
	s := newSim(t, u(20))
	a := &simTask{label: "A", specs: []Spec{inout(regions.Iv(0, 10))}}
	b := &simTask{label: "B", specs: []Spec{inout(regions.Iv(10, 20))}}
	c := &simTask{label: "C", specs: []Spec{in(regions.Iv(5, 15))}} // straddles A and B
	d := &simTask{label: "D", specs: []Spec{in(regions.Iv(0, 5))}}  // only A
	s.start([]*simTask{a, b, c, d})
	if s.isReady("C") || s.isReady("D") {
		t.Fatal("successors ready too early")
	}
	s.step("A")
	if s.isReady("C") {
		t.Fatal("C should still wait for B")
	}
	if !s.isReady("D") {
		t.Fatal("D should be ready after A alone")
	}
	s.step("B")
	if !s.isReady("C") {
		t.Fatal("C should be ready after A and B")
	}
	s.finish()
}

// TestListing2WeakwaitHandover reproduces listing 2: T1 (strong inout a,b,
// weakwait) with children T1.1 (inout a) and T1.2 (inout b); successors T2
// (in a) and T3 (in b). After T1's body ends, T2 must become ready exactly
// when T1.1 finishes, independent of T1.2 (§V).
func TestListing2WeakwaitHandover(t *testing.T) {
	a, b := regions.Iv(0, 1), regions.Iv(1, 2)
	s := newSim(t, u(2))
	t11 := &simTask{label: "T1.1", specs: []Spec{inout(a)}}
	t12 := &simTask{label: "T1.2", specs: []Spec{inout(b)}}
	t1 := &simTask{label: "T1", specs: []Spec{inout(a, b)}, weakwait: true, children: []*simTask{t11, t12}}
	t2 := &simTask{label: "T2", specs: []Spec{in(a)}}
	t3 := &simTask{label: "T3", specs: []Spec{in(b)}}
	s.start([]*simTask{t1, t2, t3})

	if s.isReady("T2") || s.isReady("T3") {
		t.Fatal("successors ready before T1")
	}
	s.step("T1") // body runs, children created, weakwait hand-over
	if s.isReady("T2") || s.isReady("T3") {
		t.Fatal("successors ready while children alive (hand-over must defer)")
	}
	s.step("T1.1")
	if !s.isReady("T2") {
		t.Fatal("T2 must be ready as soon as T1.1 finishes (fine-grained release)")
	}
	if s.isReady("T3") {
		t.Fatal("T3 must not be ready before T1.2 finishes")
	}
	s.step("T1.2")
	if !s.isReady("T3") {
		t.Fatal("T3 must be ready after T1.2")
	}
	s.finish()
}

// TestNestDependBulkRelease: without weakwait, the parent releases all its
// dependencies at once when it and all children complete (the behaviour of
// taskwait-terminated tasks, §III).
func TestNestDependBulkRelease(t *testing.T) {
	a, b := regions.Iv(0, 1), regions.Iv(1, 2)
	s := newSim(t, u(2))
	t11 := &simTask{label: "T1.1", specs: []Spec{inout(a)}}
	t12 := &simTask{label: "T1.2", specs: []Spec{inout(b)}}
	t1 := &simTask{label: "T1", specs: []Spec{inout(a, b)}, children: []*simTask{t11, t12}}
	t2 := &simTask{label: "T2", specs: []Spec{in(a)}}
	s.start([]*simTask{t1, t2})
	s.step("T1")
	s.step("T1.1")
	if s.isReady("T2") {
		t.Fatal("without weakwait, T2 must wait for the whole T1 subtree")
	}
	s.step("T1.2")
	if !s.isReady("T2") {
		t.Fatal("T2 ready once the whole T1 subtree completed")
	}
	s.finish()
}

// TestListing3WeakDeps reproduces listing 3 / figure 2: weak dependency
// types let outer tasks start (and instantiate subtasks) immediately, while
// the subtasks inherit the incoming dependencies through the weak accesses.
func TestListing3WeakDeps(t *testing.T) {
	// Layout: a=0, b=1, z=2, c=3, d=4, e=5, f=6 (one element each).
	a, b, z, c, d, eIv, f := regions.Iv(0, 1), regions.Iv(1, 2), regions.Iv(2, 3), regions.Iv(3, 4), regions.Iv(4, 5), regions.Iv(5, 6), regions.Iv(6, 7)
	s := newSim(t, u(7))

	t11 := &simTask{label: "T1.1", specs: []Spec{inout(a)}}
	t12 := &simTask{label: "T1.2", specs: []Spec{inout(b)}}
	t1 := &simTask{label: "T1", specs: []Spec{inout(a, b)}, weakwait: true, children: []*simTask{t11, t12}}

	t21 := &simTask{label: "T2.1", specs: []Spec{in(a), out(c)}}
	t22 := &simTask{label: "T2.2", specs: []Spec{in(b), out(d)}}
	t2 := &simTask{label: "T2", specs: []Spec{out(z), weakin(a, b), weakout(c, d)},
		weakwait: true, children: []*simTask{t21, t22}}

	t31 := &simTask{label: "T3.1", specs: []Spec{in(a, d), out(eIv)}}
	t32 := &simTask{label: "T3.2", specs: []Spec{in(b), out(f)}}
	t3 := &simTask{label: "T3", specs: []Spec{weakin(a, b, d), weakout(eIv, f)},
		weakwait: true, children: []*simTask{t31, t32}}

	t41 := &simTask{label: "T4.1", specs: []Spec{in(c, eIv)}}
	t42 := &simTask{label: "T4.2", specs: []Spec{in(d, f)}}
	t4 := &simTask{label: "T4", specs: []Spec{weakin(c, d, eIv, f)}, weakwait: true, children: []*simTask{t41, t42}}

	s.start([]*simTask{t1, t2, t3, t4})

	// Figure 2a: all outer tasks can run (and thus instantiate) in parallel.
	for _, l := range []string{"T1", "T2", "T3", "T4"} {
		if !s.isReady(l) {
			t.Fatalf("outer task %s should be ready immediately (weak deps don't defer); ready=%v", l, s.readyLabels())
		}
	}
	// Instantiate all inner tasks in parallel (any order).
	s.step("T4")
	s.step("T3")
	s.step("T2")
	s.step("T1")
	// Only T1's children are ready: everything else inherits pending deps.
	for _, l := range []string{"T2.1", "T2.2", "T3.1", "T3.2", "T4.1", "T4.2"} {
		if s.isReady(l) {
			t.Fatalf("inner task %s ready before its inherited deps were satisfied", l)
		}
	}
	if !s.isReady("T1.1") || !s.isReady("T1.2") {
		t.Fatal("T1's children should be ready")
	}

	// Figure 2c: when T1.1 finishes, a is released — T2.1 and nothing else
	// involving b becomes ready.
	s.step("T1.1")
	if !s.isReady("T2.1") {
		t.Fatal("T2.1 must become ready as soon as T1.1 finishes (single-domain equivalence)")
	}
	if s.isReady("T2.2") || s.isReady("T3.1") {
		t.Fatalf("tasks depending on b or d became ready too early: %v", s.readyLabels())
	}
	s.step("T1.2")
	if !s.isReady("T2.2") || !s.isReady("T3.2") {
		t.Fatalf("T2.2 and T3.2 should be ready after T1.2; ready=%v", s.readyLabels())
	}
	// T3.1 needs a (released) and d (produced by T2.2).
	if s.isReady("T3.1") {
		t.Fatal("T3.1 needs d from T2.2")
	}
	s.step("T2.2")
	if !s.isReady("T3.1") {
		t.Fatal("T3.1 ready after T2.2 produced d")
	}
	s.step("T2.1")
	s.step("T3.1")
	if !s.isReady("T4.1") {
		t.Fatal("T4.1 ready after c (T2.1) and e (T3.1)")
	}
	if s.isReady("T4.2") {
		t.Fatal("T4.2 needs f from T3.2")
	}
	s.finish()
}

// TestReleaseDirective: a task releases part of its depend set mid-body;
// successors over the released region become ready while the task runs.
func TestReleaseDirective(t *testing.T) {
	s := newSim(t, u(10))
	child := &simTask{label: "C", specs: []Spec{inout(regions.Iv(0, 5))}}
	t1 := &simTask{label: "T1", specs: []Spec{inout(regions.Iv(0, 10))},
		children:     []*simTask{child},
		releaseAfter: []Spec{inout(regions.Iv(5, 10))}}
	t2 := &simTask{label: "T2", specs: []Spec{in(regions.Iv(5, 10))}}
	t3 := &simTask{label: "T3", specs: []Spec{in(regions.Iv(0, 5))}}
	s.start([]*simTask{t1, t2, t3})
	s.step("T1")
	// T1 has NOT completed (its child is alive, and it has no weakwait), but
	// the released region must flow to T2.
	if !s.isReady("T2") {
		t.Fatal("T2 must be ready right after the release directive")
	}
	if s.isReady("T3") {
		t.Fatal("T3 over the unreleased region must wait for the subtree")
	}
	// C finishing completes the whole T1 subtree (the body already
	// returned), which bulk-releases the remaining [0,5) region.
	s.step("C")
	if !s.isReady("T3") {
		t.Fatal("T3 ready after T1 subtree completed")
	}
	s.finish()
}

// TestReleaseDirectiveWithLiveChild: releasing a region still covered by a
// live child hands it over instead of releasing immediately (the
// nest-weak-release pattern of the AXPY benchmark).
func TestReleaseDirectiveWithLiveChild(t *testing.T) {
	s := newSim(t, u(10))
	child := &simTask{label: "C", specs: []Spec{inout(regions.Iv(0, 10))}}
	t1 := &simTask{label: "T1", specs: []Spec{weakinout(regions.Iv(0, 10))},
		children:     []*simTask{child},
		releaseAfter: []Spec{weakinout(regions.Iv(0, 10))},
		weakwait:     true}
	t2 := &simTask{label: "T2", specs: []Spec{in(regions.Iv(0, 10))}}
	s.start([]*simTask{t1, t2})
	s.step("T1")
	if s.isReady("T2") {
		t.Fatal("T2 must wait for the live child despite the release directive")
	}
	s.step("C")
	if !s.isReady("T2") {
		t.Fatal("T2 ready once the covering child released")
	}
	s.finish()
}

// TestWeakChainThreeLevels: satisfaction propagates through two levels of
// weak accesses (grandparent → parent → leaf), as in the recursive
// prefix-sum benchmark (§VIII-C).
func TestWeakChainThreeLevels(t *testing.T) {
	r := regions.Iv(0, 4)
	s := newSim(t, u(4))
	leaf := &simTask{label: "leaf", specs: []Spec{inout(r)}}
	mid := &simTask{label: "mid", specs: []Spec{weakinout(r)}, weakwait: true, children: []*simTask{leaf}}
	top := &simTask{label: "top", specs: []Spec{weakinout(r)}, weakwait: true, children: []*simTask{mid}}
	w := &simTask{label: "W", specs: []Spec{inout(r)}}
	after := &simTask{label: "A", specs: []Spec{in(r)}}
	s.start([]*simTask{w, top, after})

	if !s.isReady("top") {
		t.Fatal("weak top should be ready immediately")
	}
	s.step("top")
	if !s.isReady("mid") {
		t.Fatal("weak mid should be ready immediately")
	}
	s.step("mid")
	if s.isReady("leaf") {
		t.Fatal("leaf must wait for W through two weak levels")
	}
	s.step("W")
	if !s.isReady("leaf") {
		t.Fatal("leaf ready after W released")
	}
	if s.isReady("A") {
		t.Fatal("A must wait for the leaf")
	}
	s.step("leaf")
	if !s.isReady("A") {
		t.Fatal("A ready after leaf released through the weak chain")
	}
	s.finish()
}

// TestUnrelatedDataIndependent: accesses to different data objects never
// interfere.
func TestUnrelatedDataIndependent(t *testing.T) {
	s := newSim(t, map[DataID]int64{0: 4, 1: 4})
	w0 := &simTask{label: "W0", specs: []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 4)}}}}
	w1 := &simTask{label: "W1", specs: []Spec{{Data: 1, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 4)}}}}
	r0 := &simTask{label: "R0", specs: []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(0, 4)}}}}
	s.start([]*simTask{w0, w1, r0})
	if !s.isReady("W0") || !s.isReady("W1") {
		t.Fatal("independent writers should both be ready")
	}
	s.step("W1")
	if s.isReady("R0") {
		t.Fatal("R0 must wait for W0, not W1")
	}
	s.step("W0")
	if !s.isReady("R0") {
		t.Fatal("R0 ready after W0")
	}
	s.finish()
}

// TestOverlappingOwnSpecsPanics: a task declaring overlapping depend
// entries is a programming error the engine rejects.
func TestOverlappingOwnSpecsPanics(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	n := e.NewNode(root, "bad", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overlapping own depend entries")
		}
	}()
	e.Register(n, []Spec{inout(regions.Iv(0, 10)), in(regions.Iv(5, 15))})
}

// TestChildWriteUnderReadOnlyParentPanics: a child writing a region its
// parent covers with only a read access violates the weak-access contract
// (§VI) and must be diagnosed.
func TestChildWriteUnderReadOnlyParentPanics(t *testing.T) {
	e := NewEngine(testEngineKind, nil)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	w := e.NewNode(root, "w", nil)
	e.Register(w, []Spec{inout(regions.Iv(0, 10))}) // keeps parent's piece unsatisfied? no — gives the domain a writer
	p := e.NewNode(root, "p", nil)
	e.Register(p, []Spec{weakin(regions.Iv(0, 10))})
	c := e.NewNode(p, "c", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for child write under read-only parent access")
		}
	}()
	e.Register(c, []Spec{inout(regions.Iv(0, 10))})
}

// TestStatsAccounting sanity-checks the activity counters.
func TestStatsAccounting(t *testing.T) {
	s := newSim(t, u(4))
	w := &simTask{label: "W", specs: []Spec{inout(regions.Iv(0, 4))}}
	r := &simTask{label: "R", specs: []Spec{in(regions.Iv(0, 4))}}
	s.runRandom([]*simTask{w, r}, 7)
	st := s.eng.Stats()
	if st.Nodes != 3 { // root + 2
		t.Fatalf("Nodes = %d, want 3", st.Nodes)
	}
	if st.Fragments != 2 || st.Links != 1 {
		t.Fatalf("Fragments=%d Links=%d, want 2,1", st.Fragments, st.Links)
	}
	if st.Releases == 0 || st.Grants == 0 {
		t.Fatalf("expected releases and grants, got %+v", st)
	}
}

// TestOutSkipsRAW: an out (overwrite) access still orders after prior
// writers and readers, but a reader after an out sees the new value.
func TestOutOrdering(t *testing.T) {
	s := newSim(t, u(8))
	tasks := []*simTask{
		{label: "A", specs: []Spec{out(regions.Iv(0, 8))}},
		{label: "B", specs: []Spec{in(regions.Iv(0, 8))}},
		{label: "C", specs: []Spec{out(regions.Iv(0, 8))}},
		{label: "D", specs: []Spec{in(regions.Iv(0, 8))}},
	}
	for seed := int64(0); seed < 20; seed++ {
		s := newSim(t, u(8))
		s.runRandom(tasks, seed)
		_ = s
	}
	_ = s
}

// TestSpecKeys: the canonical shard order is the distinct shard keys
// ascending, whatever the clause order — for objects of undeclared extent,
// one key per DataID; clauses of up to inlineDatas shards stay in the
// caller's inline buffer (no allocation), wider ones spill to the heap and
// stay correct.
func TestSpecKeys(t *testing.T) {
	clause := func(ids ...DataID) []Spec {
		specs := make([]Spec, len(ids))
		for i, id := range ids {
			specs[i] = Spec{Data: id, Type: In, Ivs: []regions.Interval{regions.Iv(0, 4)}}
		}
		return specs
	}
	e := newShardedEngine(nil, false)
	reg := &Node{}
	for _, c := range []struct {
		in, want []DataID
	}{
		{nil, nil},
		{[]DataID{3}, []DataID{3}},
		{[]DataID{2, 2, 2}, []DataID{2}},
		{[]DataID{5, 1, 5, 3, 1}, []DataID{1, 3, 5}},
		{[]DataID{4, 3, 2, 1}, []DataID{1, 2, 3, 4}},
		{[]DataID{9, 7, 8, 1, 7, 3, 2}, []DataID{1, 2, 3, 7, 8, 9}}, // spills
	} {
		var buf [inlineDatas]shardKey
		got := e.specKeys(buf[:0], clause(c.in...), reg)
		if len(got) != len(c.want) {
			t.Fatalf("specKeys(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != makeKey(c.want[i], 0) {
				t.Fatalf("specKeys(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	if got := e.specKeys(nil, clause(11), nil); len(got) != 0 {
		t.Fatalf("a release over an object nothing registered against names shards %v", got)
	}
	specs := clause(6, 2, 6, 4, 0)
	e.specKeys(nil, specs, reg)
	if allocs := testing.AllocsPerRun(100, func() {
		var buf [inlineDatas]shardKey
		if len(e.specKeys(buf[:0], specs, reg)) != 4 {
			t.Fatal("wrong count")
		}
	}); allocs != 0 {
		t.Fatalf("specKeys allocated %.0f times on a %d-object clause, want 0", allocs, inlineDatas)
	}
}
