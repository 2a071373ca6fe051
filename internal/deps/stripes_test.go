package deps

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mempool"
	"repro/internal/randtest"
	"repro/internal/regions"
)

// Range-striping tests: an object whose extent was declared is cut into
// stripes at its first registration, every interval is cut at the stripe
// boundaries, and the striped engine must stay observably identical to the
// single-lock reference whatever the cut.

// stripeWorkers is the worker count the tests declare: large enough that
// the per-worker cap (stripesPerWorker each) never binds below 8 stripes.
const stripeWorkers = 2

// newStriped returns a sharded engine whose objects in universe are cut
// into s stripes each: the extent is declared and the stripe table fixed
// the way a first registration of 1/s of the object would fix it.
func newStriped(tb testing.TB, universe map[DataID]int64, s int, mem mempool.Kind) *ShardedEngine {
	e := newDeclared(universe, mem)
	for d, elems := range universe {
		if got := len(e.stripesFor(d, elems/int64(s), false).shards); got != s {
			tb.Fatalf("data %d: %d stripes, want %d", d, got, s)
		}
	}
	return e
}

// newDeclared returns a sharded engine that knows the extents of the objects
// in universe and leaves their stripe counts to the first-access rule.
func newDeclared(universe map[DataID]int64, mem mempool.Kind) *ShardedEngine {
	e := newShardedEngine(nil, mem == mempool.KindPooled)
	for d, elems := range universe {
		e.DeclareExtent(d, elems, stripeWorkers)
	}
	return e
}

// straddles reports whether iv crosses a stripe boundary of an object of
// elems elements cut into s stripes.
func straddles(iv regions.Interval, elems int64, s int) bool {
	w := (elems + int64(s) - 1) / int64(s)
	return iv.Lo/w != (iv.Hi-1)/w
}

// countStraddles walks prog and counts its non-empty intervals and how many
// of them straddle.
func countStraddles(prog []*simTask, elems int64, s int) (total, crossing int) {
	for _, t := range prog {
		for _, sp := range append(append([]Spec(nil), t.specs...), t.releaseAfter...) {
			for _, iv := range sp.Ivs {
				if iv.Empty() {
					continue
				}
				total++
				if straddles(iv, elems, s) {
					crossing++
				}
			}
		}
		ct, cc := countStraddles(t.children, elems, s)
		total, crossing = total+ct, crossing+cc
	}
	return total, crossing
}

// runStripedDifferential drives prog through the global engine and the
// sharded engine eng in lockstep, both in memory mode mem: same ready set
// after every step, same final data, every object cut into s stripes,
// quiescence, nothing pooled left outstanding. The activity counters are
// compared only where they are cut-independent (all of them at s == 1).
func runStripedDifferential(t *testing.T, prog []*simTask, universe map[DataID]int64, eng *ShardedEngine, s int, mem mempool.Kind, seed int64) bool {
	g := newSimEngineMem(t, EngineGlobal, universe, mem)
	st := newSimOver(t, eng, universe)
	g.start(prog)
	st.start(prog)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; ; step++ {
		gl := append([]string(nil), g.readyLabels()...)
		sl := append([]string(nil), st.readyLabels()...)
		sort.Strings(gl)
		sort.Strings(sl)
		if !equalStrings(gl, sl) {
			t.Errorf("S=%d step %d: ready sets diverged\n  global:  %v\n  striped: %v", s, step, gl, sl)
			return false
		}
		if len(gl) == 0 {
			break
		}
		pick := gl[rng.Intn(len(gl))]
		g.step(pick)
		st.step(pick)
		if t.Failed() {
			return false
		}
	}
	if g.done != g.total || st.done != st.total {
		t.Errorf("S=%d lost tasks: global %d/%d, striped %d/%d", s, g.done, g.total, st.done, st.total)
		return false
	}
	for d := range universe {
		for p := range g.data[d] {
			if g.data[d][p] != st.data[d][p] {
				t.Errorf("S=%d final state diverged at data %d elem %d: global %d, striped %d",
					s, d, p, g.data[d][p], st.data[d][p])
				return false
			}
		}
		if tab := eng.stripesFor(d, 0, false); tab == nil || len(tab.shards) != s {
			t.Errorf("S=%d: data %d not cut into %d stripes", s, d, s)
			return false
		}
	}
	gs, ss := g.eng.Stats(), st.eng.Stats()
	if gs.Nodes != ss.Nodes || (s == 1 && gs != ss) {
		t.Errorf("S=%d stats diverged:\n  global:  %+v\n  striped: %+v", s, gs, ss)
		return false
	}
	if ss.Fragments < gs.Fragments || ss.Releases < ss.Fragments {
		t.Errorf("S=%d: %d fragments (global %d), %d releases", s, ss.Fragments, gs.Fragments, ss.Releases)
		return false
	}
	for _, e := range []Engine{g.eng, st.eng} {
		if lf := e.LiveFragments(); lf != 0 {
			t.Errorf("S=%d: engine not quiescent: %d live fragments", s, lf)
			return false
		}
		if ms, pooled := e.MemStats(); pooled != (mem == mempool.KindPooled) || ms.Outstanding() != 0 {
			t.Errorf("S=%d: pooled=%v, %d pooled objects outstanding: %+v", s, pooled, ms.Outstanding(), ms)
			return false
		}
	}
	return true
}

// TestDifferentialStriped is the lockstep differential over the package's
// random program generators with the sharded engine cut into 1, 2 and 8
// stripes per object (widths 48, 24 and 6 elements against intervals of
// 1–22): at 8 stripes at least 30% of all intervals must straddle a
// boundary, or the test is not testing the cut.
func TestDifferentialStriped(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("differential test instantiates both engines explicitly")
	}
	var total, crossing int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		progs := [][]*simTask{genMultiFlat(rng), genMultiNested(rng, 2), genMultiNested(rng, 3)}
		for pi, prog := range progs {
			ct, cc := countStraddles(prog, quickUniverse, 8)
			total, crossing = total+ct, crossing+cc
			for _, s := range []int{1, 2, 8} {
				for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
					u := multiUniverse()
					if !runStripedDifferential(t, prog, u, newStriped(t, u, s, mem), s, mem, seed*59+int64(pi)) {
						return false
					}
				}
			}
		}
		return true
	}
	randtest.Check(t, 40, 27, f)
	checkStraddleShare(t, crossing, total, 8)
}

// checkStraddleShare fails the test unless at least 30% of the intervals
// straddle a stripe boundary: otherwise it is not testing the cut.
func checkStraddleShare(t *testing.T, crossing, total, s int) {
	t.Helper()
	if !t.Failed() && crossing*10 < total*3 {
		t.Fatalf("only %d of %d intervals straddle a stripe boundary at %d stripes, want >= 30%%", crossing, total, s)
	}
	t.Logf("%d of %d intervals straddle a boundary at %d stripes", crossing, total, s)
}

// delegatingWrapper returns a task over the whole of every object of the
// multi-object universe, with children as its children. Its accesses
// delegate: the task is weakwait (each access strong or weak), or it is not
// and every access is weak.
func delegatingWrapper(rng *rand.Rand, children []*simTask) *simTask {
	w := &simTask{label: "wrapper", weakwait: rng.Intn(2) == 0, children: children}
	for d := DataID(0); d < diffDatas; d++ {
		w.specs = append(w.specs, Spec{
			Data: d, Type: InOut, Weak: !w.weakwait || rng.Intn(2) == 0,
			Ivs: []regions.Interval{regions.Iv(0, quickUniverse)},
		})
	}
	return w
}

// TestDifferentialStripedByRule is TestDifferentialStriped with nothing
// forced: the extents are declared and the production first-access rule
// picks S. Every program is a genMultiNested one (depth 2 or 3) under a
// delegatingWrapper, whose whole-object accesses are the first access to
// every object, so the rule must pick the per-worker cap.
func TestDifferentialStripedByRule(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("differential test instantiates both engines explicitly")
	}
	s := stripesPerWorker * stripeWorkers
	var total, crossing int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for depth := 2; depth <= 3; depth++ {
			nested := genMultiNested(rng, depth)
			prog := []*simTask{delegatingWrapper(rng, nested)}
			// The wrapper's whole-object intervals straddle by construction.
			ct, cc := countStraddles(nested, quickUniverse, s)
			total, crossing = total+ct, crossing+cc
			for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
				u := multiUniverse()
				if !runStripedDifferential(t, prog, u, newDeclared(u, mem), s, mem, seed*61+int64(depth)) {
					return false
				}
			}
		}
		return true
	}
	randtest.Check(t, 40, 28, f)
	checkStraddleShare(t, crossing, total, s)
}

// stripedFixture is a one-object striped engine with a registered root.
type stripedFixture struct {
	eng  *ShardedEngine
	root *Node
}

const stripedElems = 48 // 8 stripes of 6

func newStripedFixture(tb testing.TB, s int, mem mempool.Kind) *stripedFixture {
	fx := &stripedFixture{eng: newStriped(tb, map[DataID]int64{d0: stripedElems}, s, mem)}
	fx.root = fx.eng.NewNode(nil, "root", nil)
	fx.eng.Register(fx.root, nil)
	return fx
}

func (fx *stripedFixture) task(parent *Node, label string, specs ...Spec) (*Node, bool) {
	n := fx.eng.NewNode(parent, label, nil)
	return n, fx.eng.Register(n, specs)
}

func labels(nodes []*Node) string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Label())
	}
	return strings.Join(out, ",")
}

// TestStraddleFragments: an interval crossing k stripe boundaries registers
// as k+1 fragments, one per stripe, visited in ascending key order.
func TestStraddleFragments(t *testing.T) {
	for _, c := range []struct {
		iv    regions.Interval
		frags int
	}{
		{regions.Iv(0, 6), 1},   // exactly stripe 0
		{regions.Iv(5, 7), 2},   // one boundary
		{regions.Iv(3, 27), 5},  // boundaries 6, 12, 18, 24
		{regions.Iv(0, 48), 8},  // the whole object
		{regions.Iv(40, 60), 2}, // beyond the declared extent: the last stripe takes it
	} {
		fx := newStripedFixture(t, 8, mempool.KindReference)
		n, ready := fx.task(fx.root, "t", inout(c.iv))
		if !ready {
			t.Fatalf("%v: lone task not ready", c.iv)
		}
		if got := fx.eng.Stats().Fragments; got != int64(c.frags) {
			t.Fatalf("%v: %d fragments, want %d", c.iv, got, c.frags)
		}
		if len(n.datas) != c.frags || !sort.SliceIsSorted(n.datas, func(i, j int) bool { return n.datas[i] < n.datas[j] }) {
			t.Fatalf("%v: shard keys %v, want %d ascending", c.iv, n.datas, c.frags)
		}
		var covered int64
		for _, acc := range n.accesses {
			for _, f := range acc.frags {
				_, win := fx.eng.shardOf(f.key())
				if !win.ContainsIv(f.iv) {
					t.Fatalf("%v: fragment %v outside its stripe %v", c.iv, f.iv, win)
				}
				covered += f.iv.Len()
			}
		}
		if covered != c.iv.Len() {
			t.Fatalf("%v: fragments cover %d elements, want %d", c.iv, covered, c.iv.Len())
		}
		fx.eng.CompleteInto(n, nil)
		if live := fx.eng.LiveFragments(); live != 0 {
			t.Fatalf("%v: %d fragments live after completion", c.iv, live)
		}
	}
}

// TestStraddleReadyAfterLastStripe: a reader straddling four stripes, each
// written by its own producer, becomes ready with the grant of the last
// stripe to release — in whatever order the producers complete.
func TestStraddleReadyAfterLastStripe(t *testing.T) {
	for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
			fx := newStripedFixture(t, 8, mem)
			var prods []*Node
			for i := int64(0); i < 4; i++ {
				p, ready := fx.task(fx.root, fmt.Sprintf("p%d", i), inout(regions.Iv(6+6*i, 12+6*i)))
				if !ready {
					t.Fatalf("producer %d not ready", i)
				}
				prods = append(prods, p)
			}
			if _, ready := fx.task(fx.root, "reader", in(regions.Iv(8, 28))); ready {
				t.Fatal("reader ready before any producer completed")
			}
			for k, i := range order {
				got := fx.eng.CompleteInto(prods[i], nil)
				if k < len(order)-1 && len(got) != 0 {
					t.Fatalf("order %v: %s ready after %d of 4 stripes granted", order, labels(got), k+1)
				}
				if k == len(order)-1 && labels(got) != "reader" {
					t.Fatalf("order %v: last producer readied %q, want the reader", order, labels(got))
				}
			}
		}
	}
}

// TestStraddleOverlappingEntriesPanic: two entries of one clause that
// overlap only past a stripe boundary are still rejected.
func TestStraddleOverlappingEntriesPanic(t *testing.T) {
	fx := newStripedFixture(t, 8, mempool.KindReference)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overlapping depend entries") {
			t.Fatalf("recovered %v, want the overlapping-entries panic", r)
		}
		// The engine stays inspectable after the diagnostic panic.
		_ = fx.eng.Stats()
	}()
	fx.task(fx.root, "bad", in(regions.Iv(0, 10)), inout(regions.Iv(8, 14)))
}

// TestStraddleReleaseRegions: a release directive over a straddling range
// releases the piece in every stripe it crosses, and nothing outside it.
func TestStraddleReleaseRegions(t *testing.T) {
	for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
		fx := newStripedFixture(t, 8, mem)
		owner, _ := fx.task(fx.root, "owner", inout(regions.Iv(0, 48)))
		if _, ready := fx.task(fx.root, "inside", in(regions.Iv(9, 27))); ready {
			t.Fatal("reader ready while the owner holds the range")
		}
		if _, ready := fx.task(fx.root, "edge", in(regions.Iv(26, 31))); ready {
			t.Fatal("reader ready while the owner holds the range")
		}
		// [9,27) crosses the boundaries 12, 18 and 24.
		got := fx.eng.ReleaseRegionsInto(owner, []Spec{{Data: d0, Ivs: []regions.Interval{regions.Iv(9, 27)}}}, nil)
		if labels(got) != "inside" {
			t.Fatalf("release over [9,27) readied %q, want only the reader inside it", labels(got))
		}
		if got := fx.eng.CompleteInto(owner, nil); labels(got) != "edge" {
			t.Fatalf("completion readied %q, want the reader reaching past the released range", labels(got))
		}
	}
}

// TestStripesIndependent: while stripe 0's lock is held — by an edge hook
// that blocks inside a registration linking in stripe 0 — a registration
// and completion confined to stripe 1 of the same data object finish.
func TestStripesIndependent(t *testing.T) {
	for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
		fx := newStripedFixture(t, 2, mem) // stripes [0,24) and [24,48)
		first, _ := fx.task(fx.root, "first", inout(regions.Iv(0, 4)))
		entered, gate := make(chan struct{}), make(chan struct{})
		fx.eng.SetEdgeHook(func(pred, succ *Node, inbound bool) {
			close(entered)
			<-gate
		})
		blocked := make(chan struct{})
		go func() {
			defer close(blocked)
			fx.task(fx.root, "second", inout(regions.Iv(0, 4))) // links after first: the hook fires
		}()
		<-entered
		done := make(chan struct{})
		go func() {
			defer close(done)
			n, ready := fx.task(fx.root, "other", inout(regions.Iv(30, 34)))
			if !ready {
				t.Error("task confined to stripe 1 not ready")
			}
			fx.eng.CompleteInto(n, nil)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("an operation confined to stripe 1 waited for stripe 0's lock")
		}
		close(gate)
		<-blocked
		fx.eng.SetEdgeHook(nil)
		fx.eng.CompleteInto(first, nil)
	}
}

// TestFirstAccessRule pins stripeCount and the way a first registration
// applies it: the first access's width and, when it would leave the object
// one stripe, whether it delegates (a weak access, or any access of a node
// marked weakwait).
func TestFirstAccessRule(t *testing.T) {
	const n = 1 << 18
	const (
		strong = iota
		weak
		weakwait // a strong access of a node marked weakwait
	)
	for _, c := range []struct {
		name     string
		elems    int64
		declared bool
		first    int64
		access   int
		workers  int
		want     int
	}{
		{"whole-object first access", n, true, n, strong, 2, 1},
		{"quarter-object first access", n, true, n / 4, strong, 2, 4},
		{"third of the object: rounds down to a power of two", n, true, n / 3, strong, 2, 2},
		{"256-element tile: the per-worker cap", n, true, 256, strong, 2, stripesPerWorker * 2},
		{"256-element tile, four workers", n, true, 256, strong, 4, stripesPerWorker * 4},
		{"no extent declared", n, false, 256, strong, 2, 1},
		{"one worker", n, true, 256, strong, 1, 1},
		{"first access wider than the extent", 100, true, 400, strong, 2, 1},
		{"weakwait whole-object first access: the cap", n, true, n, weakwait, 2, stripesPerWorker * 2},
		{"weakwait whole-object, four workers", n, true, n, weakwait, 4, stripesPerWorker * 4},
		{"weak whole-object first access: the cap", n, true, n, weak, 2, stripesPerWorker * 2},
		{"weak two-thirds: longer than half, the cap", n, true, 2 * n / 3, weak, 2, stripesPerWorker * 2},
		{"weak quarter: the width rule answered", n, true, n / 4, weak, 2, 4},
		{"weakwait quarter: the width rule answered", n, true, n / 4, weakwait, 2, 4},
		{"delegating, one worker", n, true, n, weakwait, 1, 1},
		{"delegating, no extent declared", n, false, n, weak, 2, 1},
		{"delegating first access wider than the extent: the cap", 100, true, 400, weak, 2, stripesPerWorker * 2},
		{"delegating over a 4-element object: one stripe per element", 4, true, 4, weakwait, 2, 4},
	} {
		e := newShardedEngine(nil, false)
		if c.declared {
			e.DeclareExtent(d0, c.elems, c.workers)
		}
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		a := e.NewNode(root, "a", nil)
		first := inout(regions.Iv(0, c.first))
		switch c.access {
		case weak:
			first.Weak = true
		case weakwait:
			a.MarkWeakWait()
		}
		e.Register(a, []Spec{first})
		st := e.stripesFor(d0, 0, false)
		if got := len(st.shards); got != c.want {
			t.Errorf("%s: %d stripes, want %d", c.name, got, c.want)
		}
		// The table is fixed: a later access — narrower, or delegating — does
		// not re-stripe.
		b := e.NewNode(root, "b", nil)
		e.Register(b, []Spec{inout(regions.Iv(c.elems-1, c.elems))})
		w := e.NewNode(root, "w", nil)
		w.MarkWeakWait()
		e.Register(w, []Spec{weakinout(regions.Iv(0, c.elems))})
		if e.stripesFor(d0, 0, false) != st {
			t.Errorf("%s: stripe table replaced by a later registration", c.name)
		}
	}
}

// TestWeakWaitMarkRecycled: the weakwait mark belongs to a node's life, not
// to its memory. A pooled node that lived as a weakwait task and comes back
// out of the pool for a strong whole-object first access on a freshly
// declared object leaves that object one stripe.
func TestWeakWaitMarkRecycled(t *testing.T) {
	const elems, d1 = 1024, DataID(1)
	e := newDeclared(map[DataID]int64{d0: elems, d1: elems}, mempool.KindPooled)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	// The weakwait node stripes d0 at the cap; its dependency-free child is
	// what it waits for, so both drain through the lock-free path when the
	// child completes, and the weakwait node is the last one pooled into the
	// lane of its parent, root.
	marked := e.NewNode(root, "weakwait", nil)
	marked.MarkWeakWait()
	e.Register(marked, []Spec{inout(regions.Iv(0, elems))})
	if got := len(e.stripesFor(d0, 0, false).shards); got != stripesPerWorker*stripeWorkers {
		t.Fatalf("weakwait whole-object first access: %d stripes, want %d", got, stripesPerWorker*stripeWorkers)
	}
	child := e.NewNode(marked, "child", nil)
	e.Register(child, nil)
	e.CompleteInto(marked, nil)
	e.CompleteInto(child, nil)

	reused := e.NewNode(root, "strong", nil)
	if reused != marked {
		t.Fatal("the node pool did not hand the weakwait node back")
	}
	e.Register(reused, []Spec{{Data: d1, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, elems)}}})
	if got := len(e.stripesFor(d1, 0, false).shards); got != 1 {
		t.Errorf("strong whole-object first access by a recycled weakwait node: %d stripes, want 1", got)
	}
	e.CompleteInto(reused, nil)
	e.CompleteInto(root, nil)
	if live := e.LiveFragments(); live != 0 {
		t.Errorf("%d fragments live at the end", live)
	}
	if ms, _ := e.MemStats(); ms.Outstanding() != 0 {
		t.Errorf("%d pooled objects outstanding: %+v", ms.Outstanding(), ms)
	}
}

// BenchmarkDisjointSubtrees: two goroutines, each registering and completing
// 256-element leaves under its own weak parent over its own quarter of one
// data object — the shape of a nested-weak program's outer tasks. At S=1
// (no extent declared) both go through the object's one shard lock; at S=4
// (extent declared, so the parents' quarter-object accesses stripe it) each
// stays in its own stripe. ns/op is ns per leaf.
func BenchmarkDisjointSubtrees(b *testing.B) {
	const (
		goroutines = 2
		grain      = 256
		quarter    = 64 * grain
	)
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			if prev := runtime.GOMAXPROCS(0); prev < goroutines {
				runtime.GOMAXPROCS(goroutines)
				defer runtime.GOMAXPROCS(prev)
			}
			e := newShardedEngine(nil, true)
			if s > 1 {
				e.DeclareExtent(d0, 4*quarter, goroutines)
			}
			root := e.NewNode(nil, "root", nil)
			e.Register(root, nil)
			parents := make([]*Node, goroutines)
			for g := range parents {
				lo := int64(g) * quarter
				parents[g] = e.NewNode(root, "outer", nil)
				e.Register(parents[g], []Spec{weakinout(regions.Iv(lo, lo+quarter))})
			}
			if got := len(e.stripesFor(d0, 0, false).shards); got != s {
				b.Fatalf("%d stripes, want %d", got, s)
			}
			perG := (b.N + goroutines - 1) / goroutines
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan struct{})
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer func() { done <- struct{}{} }()
					lo := int64(g) * quarter
					ivs := make([]regions.Interval, 1)
					spec := []Spec{{Data: d0, Type: InOut, Ivs: ivs}}
					buf := make([]*Node, 0, 4)
					for k := 0; k < perG; k++ {
						at := lo + int64(k%(quarter/grain))*grain
						ivs[0] = regions.Iv(at, at+grain)
						leaf := e.NewNode(parents[g], "leaf", nil)
						e.Register(leaf, spec)
						e.CompleteInto(leaf, buf[:0])
					}
				}(g)
			}
			for g := 0; g < goroutines; g++ {
				<-done
			}
			b.StopTimer()
			for _, p := range parents {
				e.CompleteInto(p, nil)
			}
			if live := e.LiveFragments(); live != 0 {
				b.Fatalf("%d fragments live at the end", live)
			}
		})
	}
}
