package deps

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// wideParent is the release cascade of the paper's Fig 7 at its widest: a
// producer task holds inout over a whole array, a weak consumer after it
// covers the same array and has created n children under it — child k reads
// element k·s and updates [k·s+1, (k+1)·s) — while nothing of the producer
// had released yet, so all 2n child accesses linked inbound through the
// consumer's one unsatisfied fragment. The producer then releases the array
// one child-sized piece at a time (the release directive), and each release
// must cost what it touches: one piece of the producer, two pieces and two
// links of the consumer, one child — not the 2n links and entries that
// share the fragments.
type wideParent struct {
	eng            Engine
	root, producer *Node
	consumer       *Node
	n              int
	s              int64
	ready          []*Node // scratch for the Into calls
	// maps are the interval maps the cascade edits, captured while their
	// owners are live (pooled engines recycle the owners, not the maps'
	// edit counters).
	maps []interface{ Shifted() int64 }
}

const wideData DataID = 1

func newWideParent(tb testing.TB, kind EngineKind, mem mempool.Kind, n int) *wideParent {
	w := &wideParent{eng: NewEngineMem(kind, nil, mem), n: n, s: 8}
	whole := []regions.Interval{regions.Iv(0, int64(n)*w.s)}
	w.root = w.eng.NewNode(nil, "root", nil)
	w.eng.Register(w.root, nil)
	w.producer = w.eng.NewNode(w.root, "producer", nil)
	if !w.eng.Register(w.producer, []Spec{{Data: wideData, Type: InOut, Ivs: whole}}) {
		tb.Fatal("producer not ready")
	}
	consumer := w.eng.NewNode(w.root, "consumer", nil)
	w.consumer = consumer
	if !w.eng.Register(consumer, []Spec{{Data: wideData, Type: InOut, Weak: true, Ivs: whole}}) {
		tb.Fatal("weak consumer not ready")
	}
	w.maps = append(w.maps,
		&w.producer.accesses[0].frags[0].state,
		&consumer.accesses[0].frags[0].state,
		w.root.domainFor(makeKey(wideData, 0)))
	for k := 0; k < n; k++ {
		lo := int64(k) * w.s
		child := w.eng.NewNode(consumer, "child", nil)
		if w.eng.Register(child, []Spec{
			{Data: wideData, Type: In, Ivs: []regions.Interval{regions.Iv(lo, lo+1)}},
			{Data: wideData, Type: InOut, Ivs: []regions.Interval{regions.Iv(lo+1, lo+w.s)}},
		}) {
			tb.Fatalf("child %d ready before the producer released anything", k)
		}
	}
	w.maps = append(w.maps, consumer.domainFor(makeKey(wideData, 0)))
	// The consumer's body ends (weakwait): every piece is handed over to
	// the children covering it.
	if got := w.eng.BodyDoneInto(consumer, nil); len(got) != 0 {
		tb.Fatalf("consumer body end readied %d nodes", len(got))
	}
	return w
}

// release has the producer release piece k and runs the one child that
// readies to completion, which drains the consumer's piece over it.
func (w *wideParent) release(tb testing.TB, k int) {
	lo := int64(k) * w.s
	piece := [1]regions.Interval{regions.Iv(lo, lo+w.s)}
	w.ready = w.eng.ReleaseRegionsInto(w.producer, []Spec{{Data: wideData, Ivs: piece[:]}}, w.ready[:0])
	if len(w.ready) != 1 {
		tb.Fatalf("releasing piece %d readied %d nodes, want its one child", k, len(w.ready))
	}
	child := w.ready[0]
	if got := w.eng.CompleteInto(child, w.ready[:0]); len(got) != 0 {
		tb.Fatalf("completing child %d readied %d nodes", k, len(got))
	}
}

// finish completes the remaining tasks and checks that everything drained.
func (w *wideParent) finish(tb testing.TB) {
	w.eng.CompleteInto(w.consumer, nil)
	w.eng.CompleteInto(w.producer, nil)
	w.eng.CompleteInto(w.root, nil)
	if live := w.eng.LiveFragments(); live != 0 {
		tb.Fatalf("%d fragments live after the cascade", live)
	}
	if ms, pooled := w.eng.MemStats(); pooled && ms.Outstanding() != 0 {
		tb.Fatalf("%d pooled objects outstanding after the cascade", ms.Outstanding())
	}
}

// scanned sums the links the engine's cores walked while firing pieces.
func (w *wideParent) scanned() int64 {
	var n int64
	switch e := w.eng.(type) {
	case *GlobalEngine:
		n = e.c.scanned
	case *ShardedEngine:
		e.allShards(func(c *depCore) { n += c.scanned })
	}
	return n
}

// shifted sums the entries the cascade's interval maps moved.
func (w *wideParent) shifted() int64 {
	var n int64
	for _, m := range w.maps {
		n += m.Shifted()
	}
	return n
}

var cascadeModes = []struct {
	kind EngineKind
	mem  mempool.Kind
}{
	{EngineGlobal, mempool.KindReference},
	{EngineGlobal, mempool.KindPooled},
	{EngineSharded, mempool.KindReference},
	{EngineSharded, mempool.KindPooled},
}

// The cascade examines a bounded number of links and moves a bounded number
// of map entries per release, whatever n is. Before per-piece link chains
// and the chunked map, both counts grew with n per release (n² in total):
// every grant scanned the consumer's 2n waiter links, and every split and
// merge shifted half of a 2n-entry slice.
func TestCascadeWideParentScalesLinearly(t *testing.T) {
	for _, mode := range cascadeModes {
		for _, n := range []int{1 << 10, 8 << 10} {
			t.Run(fmt.Sprintf("%v/%v/N=%d", mode.kind, mode.mem, n), func(t *testing.T) {
				w := newWideParent(t, mode.kind, mode.mem, n)
				scanned0, shifted0 := w.scanned(), w.shifted()
				for k := 0; k < n; k++ {
					w.release(t, k)
				}
				scanned, shifted := w.scanned()-scanned0, w.shifted()-shifted0
				w.finish(t)
				// Per release: the producer's piece fires its one successor
				// link, the consumer's two pieces one waiter link each, the
				// child's two fragments nothing; a split or merge moves at
				// most one block of entries.
				if limit := int64(8 * n); scanned > limit {
					t.Errorf("%d releases walked %d links, want at most %d", n, scanned, limit)
				}
				if limit := int64(256 * n); shifted > limit {
					t.Errorf("%d releases moved %d map entries, want at most %d", n, shifted, limit)
				}
				t.Logf("per release: %.1f links walked, %.1f entries moved", float64(scanned)/float64(n), float64(shifted)/float64(n))
			})
		}
	}
}

// BenchmarkCascadeWideParent reports the cost of one release in the
// wideParent cascade (producer piece → grant → two consumer pieces → child
// ready → child completes → consumer piece drains and releases). The figure
// to watch is how ns/release moves with N: flat means a release costs what
// it touches.
func BenchmarkCascadeWideParent(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"4k", 4 << 10}, {"16k", 16 << 10}} {
		b.Run("N="+size.name, func(b *testing.B) {
			var releases int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newWideParent(b, EngineSharded, mempool.KindPooled, size.n)
				b.StartTimer()
				for k := 0; k < size.n; k++ {
					w.release(b, k)
				}
				b.StopTimer()
				w.finish(b)
				releases += size.n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(releases), "ns/release")
		})
	}
}

// The chain head and the link's chain fields must not grow what the interval
// map and the link arena store per entry.
func TestPieceAndLinkStayCompact(t *testing.T) {
	if got := unsafe.Sizeof(pieceState{}); got != 16 {
		t.Errorf("pieceState is %d bytes, want 16 (a 32-byte map entry)", got)
	}
	if got := unsafe.Sizeof(link{}); got != 32 {
		t.Errorf("link is %d bytes, want 32", got)
	}
	// Neighbouring pooled nodes are written by different workers at the same
	// time: a node must not end in the middle of a cache line (inlineDatas),
	// and a new flag must fit in the padding beside the others.
	if got := unsafe.Sizeof(Node{}); got != 192 {
		t.Errorf("Node is %d bytes, want 192 (three cache lines)", got)
	}
}
