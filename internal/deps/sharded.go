package deps

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/regions"
)

// ShardedEngine partitions the dependency engine by shard key — a data
// object and a stripe of its index space: every key owns a shard with its
// own mutex, interval maps (reached through the nodes' map tables), cascade
// event queue, and activity counters. Tasks whose depend clauses touch
// disjoint data, or disjoint stripes of one object, register, fragment, and
// release fully concurrently — the contention pathology of a single
// engine-wide lock (every submit and every release serialized, no matter
// how unrelated) disappears, and so does its per-object remnant (the leaves
// of every outer task of a nested program taking turns on the one lock of
// the array they all slice).
//
// An object's index space is cut into S equal, aligned stripes, and every
// interval of a depend clause or release directive is cut at the stripe
// boundaries, so each fragment lies in exactly one stripe. Sharding by key
// is then sound because every dependency structure and every cascade event
// connects pieces that overlap, and so is confined to one stripe:
//
//   - same-domain successor links connect overlapping fragments of one data
//     object;
//   - inbound waiter links connect a child fragment to the parent's access
//     over the same interval;
//   - domain cells, hand-over targets, and drain events belong to the
//     accesses that cover them.
//
// The only state shared across shards is per-node: the readiness countdown
// (unsat) and its one-shot ready election (notified), both atomics, so a
// node whose depend clause spans several shards becomes ready the moment
// the last shard delivers its last grant — with no lock common to the
// shards involved. A registration hold (+1 on the countdown for the
// duration of Register) keeps the node from becoming ready while later
// shards of its clause are still linking. In the pooled memory mode the
// node's pin countdown is a third cross-shard atomic: fragments releasing
// under different shard locks all unpin the same node, and the transition
// to zero elects the one recycler.
//
// Multi-shard operations (Register, BodyDoneInto, ReleaseRegionsInto,
// CompleteInto) visit the shards of their specs in canonical ascending-key
// order, one at a time — no shard lock is ever held while acquiring
// another, so the engine is trivially deadlock-free.
//
// S is fixed per object, at its first registration, by stripeCount: the
// first access sets the grain, unless it covers more than half the object
// and delegates (a weak access, or any access of a weakwait task: its range
// is taken over by the task's children), which gets the per-worker cap. An
// object whose extent was never declared (DeclareExtent) has one stripe.
type ShardedEngine struct {
	obs      Observer // wrapped: callbacks serialized across shards
	nodes    atomic.Int64
	ep       *enginePools // nil in the reference memory mode
	hookSlot atomic.Pointer[EdgeHook]

	// table is the copy-on-write shard table, indexed by DataID (data ids
	// are allocated densely from zero) and then by stripe: the hot-path
	// lookup is one atomic load and two indexings, with no read lock to
	// contend on. An object's entry is created, with its stripe count, at
	// its first registration: the table is cloned under mu and swapped in.
	table atomic.Pointer[[]*stripes]
	mu    sync.Mutex
	// extents holds what DeclareExtent was told, by DataID, until the
	// object's first registration consumes it. Guarded by mu.
	extents []extent
}

type shard struct {
	mu sync.Mutex
	c  depCore
}

// stripes is the shard set of one data object: stripe i covers the indices
// [i*width, (i+1)*width), the first and last stripes extended to everything
// below and above.
type stripes struct {
	width  int64
	shards []*shard
}

// of returns the stripe holding index p.
func (st *stripes) of(p int64) int {
	last := len(st.shards) - 1
	if last == 0 || p <= 0 {
		return 0
	}
	if s := p / st.width; s < int64(last) {
		return int(s)
	}
	return last
}

// window returns the index range of stripe i.
func (st *stripes) window(i int) regions.Interval {
	w := wholeObject
	if i > 0 {
		w.Lo = int64(i) * st.width
	}
	if i < len(st.shards)-1 {
		w.Hi = int64(i+1) * st.width
	}
	return w
}

// extent is what the runtime declared about a data object.
type extent struct {
	elems   int64
	workers int
}

// stripesPerWorker caps an object's stripe count at this many per worker:
// enough that workers in different parts of an object rarely meet, few
// enough that an access over the whole object is not cut into many pieces.
const stripesPerWorker = 4

// stripeCount is the first-access rule: the number of stripes of an object
// of elems elements whose first registered interval is firstLen long, in an
// engine driven by workers goroutines. It is the largest power of two that
// does not cut the first access (elems/firstLen of them tile the object) and
// does not exceed stripesPerWorker per worker — nor elems. An object of
// undeclared extent, and any object of a single worker — which cannot
// contend with itself — get one stripe.
//
// A first access longer than half the object would leave it one stripe.
// When that access delegates — it is weak, or its task is weakwait, so its
// range is about to be taken over by children — its width says nothing about
// the program's grain, and the object gets the per-worker cap instead (the
// root-level whole-array accesses of a nested program). A delegating access
// that is narrower keeps the width rule: it is the program's coarsest slicing
// (a nested-weak program's outer tasks), and a finer cut would only cut every
// access of that width into more pieces. Either way, every access wider than
// a stripe pays one fragment and one map per stripe it crosses.
func stripeCount(elems, firstLen int64, workers int, delegating bool) int {
	if workers <= 1 || elems <= 0 || firstLen <= 0 {
		return 1
	}
	limit := min(elems, int64(stripesPerWorker*workers))
	if tiles := elems / firstLen; tiles >= 2 || !delegating {
		limit = min(limit, tiles)
	}
	s := 1
	for int64(2*s) <= limit {
		s *= 2
	}
	return s
}

var _ Engine = (*ShardedEngine)(nil)

func newShardedEngine(obs Observer, pooled bool) *ShardedEngine {
	e := &ShardedEngine{obs: wrapObserver(obs)}
	if pooled {
		e.ep = newEnginePools()
	}
	e.table.Store(new([]*stripes))
	return e
}

// DeclareExtent tells the engine that data has elems elements and that
// workers goroutines will drive the engine, which lets the object's first
// registration stripe it (stripeCount). It has no effect once the object
// has been registered against.
func (e *ShardedEngine) DeclareExtent(data DataID, elems int64, workers int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(data) >= len(e.extents) {
		e.extents = append(e.extents, make([]extent, int(data)+1-len(e.extents))...)
	}
	e.extents[data] = extent{elems: elems, workers: workers}
}

// stripesFor returns data's shard set. firstLen > 0 creates it on first use,
// as the length of the interval that touches the object first (delegating
// says whether that access delegates; see stripeCount); otherwise an object
// nothing has registered against yields nil.
func (e *ShardedEngine) stripesFor(data DataID, firstLen int64, delegating bool) *stripes {
	if t := *e.table.Load(); int(data) < len(t) {
		if st := t[data]; st != nil {
			return st
		}
	}
	if firstLen <= 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := *e.table.Load()
	if int(data) < len(t) && t[data] != nil {
		return t[data]
	}
	var ext extent
	if int(data) < len(e.extents) {
		ext = e.extents[data]
	}
	n := stripeCount(ext.elems, firstLen, ext.workers, delegating)
	st := &stripes{width: (ext.elems + int64(n) - 1) / int64(n), shards: make([]*shard, n)}
	for i := range st.shards {
		sh := &shard{}
		sh.c.obs = e.obs
		sh.c.hook = &e.hookSlot
		if e.ep != nil {
			sh.c.mem = newDepMem(e.ep, makeKey(data, i))
		}
		st.shards[i] = sh
	}
	grown := make([]*stripes, max(len(t), int(data)+1))
	copy(grown, t)
	grown[data] = st
	e.table.Store(&grown)
	return st
}

// shardOf returns the shard of a key some registration has produced, and
// the index window it covers.
func (e *ShardedEngine) shardOf(key shardKey) (*shard, regions.Interval) {
	st := (*e.table.Load())[key.data()]
	return st.shards[key.stripe()], st.window(key.stripe())
}

// specKeys appends the distinct shard keys the intervals of specs fall in
// to buf in ascending order — the canonical shard acquisition order — and
// returns it. When reg, the node registering specs, is non-nil, an object's
// first interval fixes its stripes; when it is nil (a release directive),
// objects nothing has registered against are skipped. Depend clauses are
// short, so this is an insertion sort into the caller's buffer (a small
// inline array in practice); only a clause touching more shards than the
// buffer holds reaches the heap, through append.
func (e *ShardedEngine) specKeys(buf []shardKey, specs []Spec, reg *Node) []shardKey {
	for i := range specs {
		data := specs[i].Data
		var st *stripes
		for _, iv := range specs[i].Ivs {
			if iv.Empty() {
				continue
			}
			if st == nil {
				firstLen, delegating := int64(0), false
				if reg != nil {
					firstLen, delegating = iv.Len(), specs[i].Weak || reg.weakWait
				}
				if st = e.stripesFor(data, firstLen, delegating); st == nil {
					break
				}
			}
			for s, hi := st.of(iv.Lo), st.of(iv.Hi-1); s <= hi; s++ {
				buf = insertKey(buf, makeKey(data, s))
			}
		}
	}
	return buf
}

// insertKey inserts key into the ascending, duplicate-free buf.
func insertKey(buf []shardKey, key shardKey) []shardKey {
	at := len(buf)
	for at > 0 && buf[at-1] > key {
		at--
	}
	if at > 0 && buf[at-1] == key {
		return buf
	}
	buf = append(buf, 0)
	copy(buf[at+1:], buf[at:])
	buf[at] = key
	return buf
}

// allShards calls f on every shard, under its lock, for the aggregate
// accessors.
func (e *ShardedEngine) allShards(f func(c *depCore)) {
	for _, st := range *e.table.Load() {
		if st == nil {
			continue
		}
		for _, sh := range st.shards {
			sh.locked(f)
		}
	}
}

// SetEdgeHook installs (or, with nil, uninstalls) the edge-export hook;
// see the Engine contract. The hook fires under the lock of the edge's
// shard, so edges of different shards may be delivered concurrently.
func (e *ShardedEngine) SetEdgeHook(fn EdgeHook) {
	if fn == nil {
		e.hookSlot.Store(nil)
		return
	}
	e.hookSlot.Store(&fn)
}

// Stats returns a snapshot of the activity counters, aggregated over all
// shards.
func (e *ShardedEngine) Stats() Stats {
	st := Stats{Nodes: e.nodes.Load()}
	e.allShards(func(c *depCore) { st.add(c.stats) })
	return st
}

// LiveFragments returns the number of fragments not yet fully released,
// summed over all shards.
func (e *ShardedEngine) LiveFragments() int64 {
	var live int64
	e.allShards(func(c *depCore) { live += c.liveFrags })
	return live
}

// MemStats returns the engine's memory-pool counters; pooled=false (and
// zero counters) in the reference memory mode.
func (e *ShardedEngine) MemStats() (MemStats, bool) {
	if e.ep == nil {
		return MemStats{}, false
	}
	return e.ep.memStats(), true
}

// NewNode creates a node under parent (nil for the root node). No shard is
// involved: node identity is shard-free state. Pooled nodes come from a
// striped free list; the parent pointer is the lane hint — submitters
// under different parents (the parallel-instantiation case) then populate
// different lanes and their creation paths stay mutex-uncontended.
func (e *ShardedEngine) NewNode(parent *Node, label string, user any) *Node {
	e.nodes.Add(1)
	var n *Node
	if e.ep != nil {
		n = e.ep.newPooledNode(laneHint(parent), parent, label, user)
		if parent != nil {
			parent.pins.Add(1) // released when the child node is recycled
		}
	} else {
		n = newNode(parent, label, user)
	}
	if e.obs != nil {
		e.obs.NodeCreated(n, parent)
	}
	return n
}

// Register links the node's depend entries into its parent's domain, shard
// by shard in canonical key order — each entry cut to the shard's stripe —
// and reports whether the node is immediately ready. Registration only
// creates links and charges pending grants — it releases nothing — so each
// shard's section is self-contained and no lock spans two shards; the
// registration hold keeps concurrent grants from readying the node until
// every entry is linked.
func (e *ShardedEngine) Register(n *Node, specs []Spec) bool {
	checkRegister(n, specs)
	n.datas = e.specKeys(n.data0[:0], specs, n)
	for _, key := range n.datas {
		sh, win := e.shardOf(key)
		sh.locked(func(c *depCore) {
			for i := range specs {
				if specs[i].Data == key.data() {
					c.registerSpec(n, specs[i], key, win)
				}
			}
		})
	}
	return finishRegister(n, e.obs)
}

// locked runs f on the shard's core under its mutex. The deferred unlock
// keeps the engine's diagnostic panics (overlapping depend entries,
// hand-over conflicts, counter underflows) recoverable: a caller that
// recovers must still be able to reach Stats/LiveFragments afterwards.
func (sh *shard) locked(f func(c *depCore)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(&sh.c)
}

// BodyDoneInto implements the weakwait clause (§V): hand-over or release
// of every access piece, shard by shard. Each shard's cascade runs to
// quiescence under that shard's lock before the next shard is visited; the
// ready nodes collected across shards are appended to out together.
func (e *ShardedEngine) BodyDoneInto(n *Node, out []*Node) []*Node {
	for _, key := range n.datas {
		sh, _ := e.shardOf(key)
		sh.locked(func(c *depCore) {
			for _, acc := range n.accesses {
				if acc.key != key {
					continue
				}
				for _, f := range acc.frags {
					c.handOverOrRelease(n, f, f.iv)
				}
			}
			c.drainQueue()
			out = c.appendReady(out)
		})
	}
	return out
}

// ReleaseRegionsInto implements the release directive (§V), shard by
// shard in canonical key order, appending the nodes that became ready to
// out.
func (e *ShardedEngine) ReleaseRegionsInto(n *Node, specs []Spec, out []*Node) []*Node {
	var buf [inlineDatas]shardKey
	for _, key := range e.specKeys(buf[:0], specs, nil) {
		sh, win := e.shardOf(key)
		sh.locked(func(c *depCore) {
			for i := range specs {
				if specs[i].Data == key.data() {
					c.releaseSpec(n, specs[i], key, win)
				}
			}
			c.drainQueue()
			out = c.appendReady(out)
		})
	}
	return out
}

// CompleteInto finalizes the node once its code and all descendants have
// finished, shard by shard, appending the nodes that became ready to out.
// Under the pooled memory mode the node may be recycled before
// CompleteInto returns; see the Engine contract.
func (e *ShardedEngine) CompleteInto(n *Node, out []*Node) []*Node {
	n.completed = true
	// The completion hold (pooled mode) is released inside the visit of the
	// node's last shard, so that a node it drains — a leaf, typically — is
	// recycled into that shard's owner lanes and not, one mutex per object
	// type, into the free lists every shard shares. The failpoint delays the
	// release, racing the recycle election against fragments unpinning
	// under other shards' locks.
	last := len(n.datas) - 1
	for i, key := range n.datas {
		// Failpoint: interleave the per-shard completion visits of a
		// multi-shard clause against concurrent registrations and other
		// completions over the same data.
		chaos.Maybe(chaos.DepsCascade)
		sh, _ := e.shardOf(key)
		sh.locked(func(c *depCore) {
			for _, acc := range n.accesses {
				if acc.key != key {
					continue
				}
				for _, f := range acc.frags {
					c.markDone(f, f.iv)
				}
			}
			c.drainQueue()
			out = c.appendReady(out)
			if i == last && e.ep != nil {
				chaos.Maybe(chaos.DepsPinRelease)
				e.ep.unpin(n, c.mem)
			}
		})
	}
	if last < 0 && e.ep != nil {
		// No depend clause, no shard: the shared lists are all there is.
		chaos.Maybe(chaos.DepsPinRelease)
		e.ep.unpin(n, nil)
	}
	return out
}
