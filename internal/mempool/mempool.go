// Package mempool implements the typed free lists behind the runtime's
// allocation-free steady-state hot path. Every submit→complete cycle used
// to heap-allocate its task-lifecycle objects (a core.Task, a deps.Node,
// access structs, interval fragments, interval-map cells, deque boxes,
// replay countdown cells, worksharing chunk descriptors); once the locks
// are sharded away, that allocator and GC traffic is the dominant per-task
// overhead in the fine-grained-task regime. The pools here recycle those
// objects instead, with three safety nets:
//
//   - generation counters: every recyclable object embeds a Gen that is
//     bumped when the object is retired to a pool, so a Handle captured
//     while the object was live detects staleness (use-after-recycle, and
//     the ABA reuse of the same memory for a new object) instead of
//     silently reading the successor's state;
//   - leak accounting: each Global tracks outstanding objects (gets minus
//     puts); a drained runtime must report zero, which the Debug checks
//     and the differential tests assert;
//   - batch transfer: owner lanes refill from and overflow to the global
//     shard a batch at a time, so the shared mutex is touched once per
//     batch, not once per object.
//
// Two lane flavors cover the runtime's synchronization patterns:
//
//   - Lane is unsynchronized and caller-serialized: the dependency engine
//     owns one lane per data shard (entered only under that shard's lock),
//     the scheduler one per worker deque (owner-only by the token rule),
//     the core runtime one per worker. Steady-state Get/Put is a plain
//     slice push/pop — no atomics beyond the leak counter.
//   - Pool wraps mutex-guarded lanes for call sites that hold no
//     serializing token (e.g. node creation before the registering shard
//     is known); with lanes spread by a caller-supplied hint the mutex is
//     uncontended in steady state.
package mempool

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
)

// Kind selects the dependency engine's memory management
// (deps.NewEngineMem). The core runtime always runs KindPooled.
type Kind uint8

const (
	// KindReference is the allocate-always baseline: every lifecycle
	// object is heap-allocated and left to the garbage collector. Kept as
	// the differential reference of the tests, mirroring the global
	// dependency engine and the locked throttle window.
	KindReference Kind = iota
	// KindPooled recycles task-lifecycle objects through the typed free
	// lists of this package.
	KindPooled
)

// String returns the kind's depbench/table name.
func (k Kind) String() string {
	if k == KindPooled {
		return "pooled"
	}
	return "reference"
}

// Gen is the generation counter embedded in recyclable objects. It is
// bumped by Retire when the object goes back to a pool, invalidating every
// Handle captured during the object's previous life. The zero value is
// generation zero, live.
type Gen struct {
	g atomic.Uint32
}

// Generation returns the current generation.
func (g *Gen) Generation() uint32 { return g.g.Load() }

// Retire bumps the generation, invalidating outstanding Handles. The owner
// must call it before the object is made available for reuse.
func (g *Gen) Retire() { g.g.Add(1) }

// Handle is a generation-checked weak reference to a recyclable object: it
// remembers the generation at capture time and refuses to hand the object
// back once the object has been retired (and possibly reincarnated as a
// different logical object in the same memory). gen extracts the object's
// embedded Gen.
type Handle[T any] struct {
	p   *T
	gen func(*T) *Gen
	g   uint32
}

// MakeHandle captures a handle to p at its current generation.
func MakeHandle[T any](p *T, gen func(*T) *Gen) Handle[T] {
	return Handle[T]{p: p, gen: gen, g: gen(p).Generation()}
}

// Get returns the object if it is still the same incarnation the handle
// was captured from; ok=false after the object has been retired. The
// caller must ensure the object cannot be retired while it uses the
// result (in the runtime: nodes are only retired after their completion
// cascade, so holding a handle across a completion point is exactly the
// stale access this check catches).
func (h Handle[T]) Get() (*T, bool) {
	if h.p == nil || h.gen(h.p).Generation() != h.g {
		return nil, false
	}
	return h.p, true
}

// Valid reports whether the handle still refers to its original
// incarnation.
func (h Handle[T]) Valid() bool {
	_, ok := h.Get()
	return ok
}

// Stats is a snapshot of a Global's activity and leak accounting.
type Stats struct {
	// News counts objects heap-allocated because no pooled one was
	// available.
	News int64
	// Gets and Puts count objects handed out and recycled, across every
	// lane attached to the global shard.
	Gets, Puts int64
	// Refills and Flushes count batch transfers between lanes and the
	// global shard.
	Refills, Flushes int64
}

// Outstanding returns the number of objects currently held by callers
// (leak accounting): a drained subsystem must report zero.
func (s Stats) Outstanding() int64 { return s.Gets - s.Puts }

// laneBatch is the batch size of lane↔global transfers and half the lane
// capacity: a lane holds at most 2*laneBatch objects, so ping-ponging at a
// boundary cannot thrash the global mutex.
const laneBatch = 32

// Global is the shared shard of one object type: a mutex-guarded free
// list that lanes refill from and flush to in batches, plus the allocator
// and the leak accounting. Safe for concurrent use.
type Global[T any] struct {
	alloc func() *T

	mu    sync.Mutex
	items []*T
	lanes []*Lane[T] // registered owner lanes (their counters roll up in Stats)

	news, gets, puts, refills, flushes atomic.Int64
}

// NewGlobal creates a global shard; alloc builds a fresh object when the
// free lists run dry.
func NewGlobal[T any](alloc func() *T) *Global[T] {
	return &Global[T]{alloc: alloc}
}

// Stats returns a snapshot of the counters, aggregated over the global
// shard and every registered lane. Exact at quiescence; momentarily stale
// while operations are in flight.
func (g *Global[T]) Stats() Stats {
	st := Stats{
		News: g.news.Load(), Gets: g.gets.Load(), Puts: g.puts.Load(),
		Refills: g.refills.Load(), Flushes: g.flushes.Load(),
	}
	g.mu.Lock()
	for _, l := range g.lanes {
		st.Gets += l.gets.Load()
		st.Puts += l.puts.Load()
	}
	g.mu.Unlock()
	return st
}

// Outstanding returns gets minus puts (objects currently held by callers).
func (g *Global[T]) Outstanding() int64 {
	st := g.Stats()
	return st.Gets - st.Puts
}

func (g *Global[T]) registerLane(l *Lane[T]) {
	g.mu.Lock()
	g.lanes = append(g.lanes, l)
	g.mu.Unlock()
}

// refill moves up to laneBatch objects into dst and reports how many.
func (g *Global[T]) refill(dst []*T) []*T {
	g.mu.Lock()
	n := laneBatch
	if n > len(g.items) {
		n = len(g.items)
	}
	if n > 0 {
		from := len(g.items) - n
		for _, p := range g.items[from:] {
			dst = append(dst, p)
		}
		clearTail(g.items, from)
		g.items = g.items[:from]
		g.refills.Add(1)
	}
	g.mu.Unlock()
	return dst
}

// flush takes the batch of objects back onto the global free list.
func (g *Global[T]) flush(src []*T) {
	g.mu.Lock()
	g.items = append(g.items, src...)
	g.flushes.Add(1)
	g.mu.Unlock()
}

func clearTail[T any](s []*T, from int) {
	for i := from; i < len(s); i++ {
		s[i] = nil
	}
}

// Get hands out one object straight from the global shard (mutex-guarded;
// safe from any goroutine). Prefer an owner Lane on hot paths.
func (g *Global[T]) Get() *T {
	g.gets.Add(1)
	g.mu.Lock()
	if n := len(g.items); n > 0 {
		p := g.items[n-1]
		g.items[n-1] = nil
		g.items = g.items[:n-1]
		g.mu.Unlock()
		return p
	}
	g.mu.Unlock()
	g.news.Add(1)
	return g.alloc()
}

// Put recycles one object straight onto the global shard (mutex-guarded;
// safe from any goroutine). The caller must have reset the object (and
// Retired its Gen) first.
func (g *Global[T]) Put(p *T) {
	g.puts.Add(1)
	g.mu.Lock()
	g.items = append(g.items, p)
	g.mu.Unlock()
}

// Lane is an owner-serialized free list over a Global: Get and Put are
// plain slice operations plus one atomic bump of the lane's own leak
// counter — a cache line only the owner writes, so the accounting adds no
// cross-core traffic — touching the shared shard only for batch refills
// and overflow flushes. A Lane is NOT safe for concurrent use — the caller
// must serialize all operations (the dependency engine enters its
// per-shard lanes only under the shard lock; the scheduler and core enter
// per-worker lanes only while holding that worker's token, which at most
// one goroutine does at a time). The counters are atomics only so that
// Stats/Outstanding may read them from other goroutines.
type Lane[T any] struct {
	g          *Global[T]
	items      []*T
	gets, puts atomic.Int64
}

// NewLane creates a lane over g.
func NewLane[T any](g *Global[T]) *Lane[T] {
	l := &Lane[T]{}
	l.Init(g)
	return l
}

// Init makes a zero-value lane usable (for lanes embedded in larger
// structs) and registers it with g's aggregate accounting. Call exactly
// once per lane.
func (l *Lane[T]) Init(g *Global[T]) {
	l.g = g
	g.registerLane(l)
}

// Get returns a pooled object, refilling a batch from the global shard
// when the lane is empty and heap-allocating only when both are dry. The
// object is in the reset state established by the previous owner's Put
// (or freshly allocated).
func (l *Lane[T]) Get() *T {
	l.gets.Add(1)
	if chaos.Enabled() && len(l.items) > 0 && chaos.Force(chaos.MempoolRefill) {
		// Forced lane miss: flush the lane's stock to the global shard so
		// the Get below goes through the batch refill path — the transfer
		// machinery a quiet steady state rarely exercises. Gets/Puts are
		// untouched, so the leak accounting stays exact.
		l.g.flush(l.items)
		clearTail(l.items, 0)
		l.items = l.items[:0]
	}
	if n := len(l.items); n > 0 {
		p := l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
		return p
	}
	l.items = l.g.refill(l.items)
	if n := len(l.items); n > 0 {
		p := l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
		return p
	}
	l.g.news.Add(1)
	return l.g.alloc()
}

// Put recycles an object into the lane, flushing a batch to the global
// shard when the lane is full. The caller must have reset the object and
// Retired its Gen: once Put returns, any goroutine may receive the object
// from any lane of the same Global.
func (l *Lane[T]) Put(p *T) {
	l.puts.Add(1)
	if len(l.items) >= 2*laneBatch {
		from := len(l.items) - laneBatch
		l.g.flush(l.items[from:])
		clearTail(l.items, from)
		l.items = l.items[:from]
	}
	l.items = append(l.items, p)
}

// Pool wraps a Global with mutex-guarded lanes for call sites that hold no
// serializing token. The lane hint spreads callers so the mutexes stay
// uncontended; any int is accepted (hashed into range), including
// negatives.
type Pool[T any] struct {
	g     *Global[T]
	lanes []lockedLane[T]
}

// lockedLane pads to a whole number of cache lines so two hint-adjacent
// callers do not false-share.
type lockedLane[T any] struct {
	mu   sync.Mutex // 8 bytes
	lane Lane[T]    // 48
	_    [8]byte    // 56 -> 64
}

// NewPool creates a pool with the given number of mutex-guarded lanes over
// a fresh Global.
func NewPool[T any](lanes int, alloc func() *T) *Pool[T] {
	if lanes < 1 {
		lanes = 1
	}
	p := &Pool[T]{g: NewGlobal(alloc), lanes: make([]lockedLane[T], lanes)}
	for i := range p.lanes {
		p.lanes[i].lane.Init(p.g)
	}
	return p
}

// Global returns the backing global shard (for attaching owner Lanes that
// share this pool's objects and accounting).
func (p *Pool[T]) Global() *Global[T] { return p.g }

func (p *Pool[T]) idx(hint int) int {
	if hint < 0 {
		hint = -hint
	}
	return hint % len(p.lanes)
}

// Get returns a pooled object; hint selects a lane (callers with a stable
// identity — a worker id, a shard id — get an uncontended mutex).
func (p *Pool[T]) Get(hint int) *T {
	ll := &p.lanes[p.idx(hint)]
	ll.mu.Lock()
	x := ll.lane.Get()
	ll.mu.Unlock()
	return x
}

// Put recycles an object. The caller must have reset it and Retired its
// Gen.
func (p *Pool[T]) Put(hint int, x *T) {
	ll := &p.lanes[p.idx(hint)]
	ll.mu.Lock()
	ll.lane.Put(x)
	ll.mu.Unlock()
}

// Stats returns the pool's aggregate counters.
func (p *Pool[T]) Stats() Stats { return p.g.Stats() }

// Outstanding returns the number of objects currently held by callers.
func (p *Pool[T]) Outstanding() int64 { return p.g.Outstanding() }
