package mempool

import (
	"sync"
	"testing"
)

type obj struct {
	gen Gen
	val int
}

func objGen(o *obj) *Gen { return &o.gen }

func TestLaneRecycleRoundTrip(t *testing.T) {
	g := NewGlobal(func() *obj { return &obj{} })
	l := NewLane(g)
	a := l.Get()
	a.val = 7
	a.val = 0 // caller-side reset
	a.gen.Retire()
	l.Put(a)
	b := l.Get()
	if b != a {
		t.Fatalf("lane did not recycle: got %p want %p", b, a)
	}
	if got := g.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
	b.gen.Retire()
	l.Put(b)
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after drain = %d, want 0", got)
	}
}

func TestHandleDetectsRecycle(t *testing.T) {
	g := NewGlobal(func() *obj { return &obj{} })
	l := NewLane(g)
	a := l.Get()
	h := MakeHandle(a, objGen)
	if !h.Valid() {
		t.Fatal("fresh handle invalid")
	}
	if p, ok := h.Get(); !ok || p != a {
		t.Fatalf("Get = %p,%v, want %p,true", p, ok, a)
	}
	a.gen.Retire()
	l.Put(a)
	if h.Valid() {
		t.Fatal("handle survived Retire")
	}
	// ABA: the same memory comes back as a new logical object; the stale
	// handle must still refuse it.
	b := l.Get()
	if b != a {
		t.Fatalf("expected recycled object")
	}
	if _, ok := h.Get(); ok {
		t.Fatal("stale handle accepted the reincarnated object (ABA)")
	}
	h2 := MakeHandle(b, objGen)
	if !h2.Valid() {
		t.Fatal("fresh handle on reincarnation invalid")
	}
}

func TestBatchTransferAcrossLanes(t *testing.T) {
	g := NewGlobal(func() *obj { return &obj{} })
	producer, consumer := NewLane(g), NewLane(g)
	var got []*obj
	for i := 0; i < 5*laneBatch; i++ {
		got = append(got, consumer.Get())
	}
	for _, p := range got {
		p.gen.Retire()
		producer.Put(p) // overflows into the global shard
	}
	st := g.Stats()
	if st.Flushes == 0 {
		t.Fatalf("producer lane never flushed to global: %+v", st)
	}
	seen := map[*obj]bool{}
	for _, p := range got {
		seen[p] = true
	}
	// The consumer must get recycled objects back via global refills.
	recycled := 0
	for i := 0; i < 5*laneBatch; i++ {
		if seen[consumer.Get()] {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no object flowed producer → global → consumer")
	}
	if g.Stats().Refills == 0 {
		t.Fatalf("consumer lane never refilled from global: %+v", g.Stats())
	}
}

// TestGlobalDirectGetPut covers the mutex-guarded Global.Get/Put path the
// lane-less call sites use: it recycles LIFO, allocates only when the free
// list is dry, and keeps the leak accounting exact.
func TestGlobalDirectGetPut(t *testing.T) {
	g := NewGlobal(func() *obj { return &obj{} })
	a, b := g.Get(), g.Get()
	if a == b {
		t.Fatal("two Gets on an empty shard returned the same object")
	}
	if st := g.Stats(); st.News != 2 || st.Gets != 2 || st.Outstanding() != 2 {
		t.Fatalf("after two Gets: %+v (Outstanding %d), want News=2 Gets=2 Outstanding=2", st, st.Outstanding())
	}
	a.gen.Retire()
	g.Put(a)
	b.gen.Retire()
	g.Put(b)
	if got := g.Get(); got != b {
		t.Fatalf("Get after Put(a), Put(b) = %p, want the last put %p", got, b)
	}
	if got := g.Get(); got != a {
		t.Fatalf("second Get = %p, want %p", got, a)
	}
	st := g.Stats()
	if st.News != 2 {
		t.Errorf("News = %d after recycling, want 2 (no fresh allocation)", st.News)
	}
	if st.Gets != 4 || st.Puts != 2 || g.Outstanding() != 2 {
		t.Errorf("stats %+v, Outstanding %d; want Gets=4 Puts=2 Outstanding=2", st, g.Outstanding())
	}
}

// TestPoolGlobalSharesAccounting checks that an owner Lane attached to a
// Pool's Global shares the pool's objects and rolls up into its Stats.
func TestPoolGlobalSharesAccounting(t *testing.T) {
	p := NewPool(2, func() *obj { return &obj{} })
	l := NewLane(p.Global())
	x := l.Get()
	if got := p.Outstanding(); got != 1 {
		t.Fatalf("pool Outstanding = %d with one object held by an attached lane, want 1", got)
	}
	x.gen.Retire()
	p.Global().Put(x)
	if got := p.Get(0); got != x {
		t.Fatalf("pool Get = %p, want the object the attached lane returned %p", got, x)
	}
	st := p.Stats()
	if st.News != 1 || st.Gets != 2 || st.Puts != 1 || st.Refills != 1 {
		t.Errorf("stats %+v, want News=1 Gets=2 Puts=1 Refills=1", st)
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(4, func() *obj { return &obj{} })
	const goroutines = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			var held []*obj
			for i := 0; i < rounds; i++ {
				o := p.Get(gi)
				o.val = gi
				held = append(held, o)
				if len(held) >= 16 {
					for _, h := range held {
						h.val = 0
						h.gen.Retire()
						p.Put(gi, h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				h.val = 0
				h.gen.Retire()
				p.Put(gi, h)
			}
		}(gi)
	}
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("leak: Outstanding = %d, want 0 (stats %+v)", got, p.Stats())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindReference: "reference", KindPooled: "pooled"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
