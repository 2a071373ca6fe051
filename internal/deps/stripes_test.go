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
	e := newShardedEngine(nil, mem == mempool.KindPooled)
	for d, elems := range universe {
		e.DeclareExtent(d, elems, stripeWorkers)
		if got := len(e.stripesFor(d, elems/int64(s)).shards); got != s {
			tb.Fatalf("data %d: %d stripes, want %d", d, got, s)
		}
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

// runStripedDifferential drives prog through the global engine and a sharded
// engine of s stripes per object in lockstep, both in memory mode mem: same
// ready set after every step, same final data, quiescence, nothing pooled
// left outstanding. The activity counters are compared only where they are
// cut-independent (all of them at s == 1).
func runStripedDifferential(t *testing.T, prog []*simTask, universe map[DataID]int64, s int, mem mempool.Kind, seed int64) bool {
	g := newSimEngineMem(t, EngineGlobal, universe, mem)
	st := newSimOver(t, newStriped(t, universe, s, mem), universe)
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
					if !runStripedDifferential(t, prog, multiUniverse(), s, mem, seed*59+int64(pi)) {
						return false
					}
				}
			}
		}
		return true
	}
	randtest.Check(t, 40, 27, f)
	if !t.Failed() && crossing*10 < total*3 {
		t.Fatalf("only %d of %d intervals straddle a stripe boundary at 8 stripes, want >= 30%%", crossing, total)
	}
	t.Logf("%d of %d intervals straddle a boundary at 8 stripes", crossing, total)
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
		fx.eng.Complete(n)
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
				got := fx.eng.Complete(prods[i])
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
		got := fx.eng.ReleaseRegions(owner, []Spec{{Data: d0, Ivs: []regions.Interval{regions.Iv(9, 27)}}})
		if labels(got) != "inside" {
			t.Fatalf("release over [9,27) readied %q, want only the reader inside it", labels(got))
		}
		if got := fx.eng.Complete(owner); labels(got) != "edge" {
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
			fx.eng.Complete(n)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("an operation confined to stripe 1 waited for stripe 0's lock")
		}
		close(gate)
		<-blocked
		fx.eng.SetEdgeHook(nil)
		fx.eng.Complete(first)
	}
}

// TestFirstAccessRule pins stripeCount and the way a first registration
// applies it.
func TestFirstAccessRule(t *testing.T) {
	const n = 1 << 18
	for _, c := range []struct {
		name     string
		elems    int64
		declared bool
		first    int64
		workers  int
		want     int
	}{
		{"whole-object first access", n, true, n, 2, 1},
		{"quarter-object first access", n, true, n / 4, 2, 4},
		{"third of the object: rounds down to a power of two", n, true, n / 3, 2, 2},
		{"256-element tile: the per-worker cap", n, true, 256, 2, stripesPerWorker * 2},
		{"256-element tile, four workers", n, true, 256, 4, stripesPerWorker * 4},
		{"no extent declared", n, false, 256, 2, 1},
		{"one worker", n, true, 256, 1, 1},
		{"first access wider than the extent", 100, true, 400, 2, 1},
	} {
		e := NewShardedEngine(nil)
		if c.declared {
			e.DeclareExtent(d0, c.elems, c.workers)
		}
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		a := e.NewNode(root, "a", nil)
		e.Register(a, []Spec{inout(regions.Iv(0, c.first))})
		st := e.stripesFor(d0, 0)
		if got := len(st.shards); got != c.want {
			t.Errorf("%s: %d stripes, want %d", c.name, got, c.want)
		}
		// The table is fixed: a later, narrower access does not re-stripe.
		b := e.NewNode(root, "b", nil)
		e.Register(b, []Spec{inout(regions.Iv(c.elems-1, c.elems))})
		if e.stripesFor(d0, 0) != st {
			t.Errorf("%s: stripe table replaced by a later registration", c.name)
		}
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
			if got := len(e.stripesFor(d0, 0).shards); got != s {
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
				e.Complete(p)
			}
			if live := e.LiveFragments(); live != 0 {
				b.Fatalf("%d fragments live at the end", live)
			}
		})
	}
}
