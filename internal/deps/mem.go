package deps

import (
	"unsafe"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// This file implements the pooled memory mode of the dependency engines:
// every object of the task-dependency lifecycle — Node, access, fragment,
// and the per-data interval maps — is recycled through internal/mempool
// free lists instead of being left to the garbage collector.
//
// Ownership rules (who may free what, and when):
//
//   - A fragment, its access, and the node's interval maps are owned by
//     the node and recycled together with it.
//   - A node is recycled exactly when its pin count reaches zero: after
//     CompleteInto released the completion hold, every own fragment fully
//     released, every child node recycled, and no evDomainDec cascade
//     event still targets its domain (each queued event holds a pin).
//     The atomic pin countdown elects exactly one recycler and carries
//     the happens-before edges from every prior mutation site.
//   - A recycled node bumps its generation counter first, so NodeHandles
//     captured by observers or diagnostics detect stale access instead of
//     reading the next task's state. Double-free is structurally
//     impossible: only the single pins-to-zero transition recycles.
//
// Why a fully released fragment is unreachable (the invariant that makes
// recycling sound): every dependency link charges pending grants to its
// target over the link's whole interval at link time, and a piece releases
// only when its pending counters are zero and its completion point has
// passed. A fragment can therefore only release fully after every incoming
// link has delivered every grant it ever will: each piece of a link's source
// fires its chain once per transition, and all of those firings precede the
// target's last release.
// References from domain-cell history (lastWriter/readers/reds) are
// scrubbed piece-wise by the evDomainDec handler as the fragment releases.

// enginePools is the set of free lists shared by all shards of one engine.
// Nodes use a locked Pool because NewNode runs under no shard lock; the
// other types are allocated and freed under shard locks (or at node-drain
// points covered by the pin protocol) through per-shard owner lanes.
type enginePools struct {
	nodes *mempool.Pool[Node]
	frags *mempool.Global[fragment]
	accs  *mempool.Global[access]
	amaps *mempool.Global[regions.Map[*fragment]]
	dmaps *mempool.Global[regions.Map[cellState]]
	// flists recycles the domain cells' reader/reduction history lists. A
	// locked Pool rather than a bare Global: interval-map splits clone
	// cells through the map's baked-in clone function, which has no shard
	// lane in scope (cloneCellFn spreads those callers by fragment
	// pointer); the shard-locked call sites go through per-shard lanes
	// attached to the same accounting (depMem.flists).
	flists *mempool.Pool[fragList]
}

// nodePoolLanes spreads concurrent NewNode callers over the node pool's
// mutexes.
const nodePoolLanes = 16

// laneHint derives a stable node-pool lane from the parent pointer, so
// each submitting chain keeps hitting its own (uncontended) lane mutex.
func laneHint(parent *Node) int {
	return int(uintptr(unsafe.Pointer(parent)) >> 6)
}

func newEnginePools() *enginePools {
	ep := &enginePools{
		nodes:  mempool.NewPool(nodePoolLanes, func() *Node { return &Node{} }),
		frags:  mempool.NewGlobal(func() *fragment { return &fragment{} }),
		accs:   mempool.NewGlobal(func() *access { return &access{} }),
		amaps:  mempool.NewGlobal(func() *regions.Map[*fragment] { return regions.NewMap[*fragment](nil) }),
		flists: mempool.NewPool(nodePoolLanes, func() *fragList { return &fragList{} }),
	}
	// Pooled domain maps clone their cells' history lists through the
	// engine's list pool instead of the reference mode's plain allocation.
	ep.dmaps = mempool.NewGlobal(func() *regions.Map[cellState] { return regions.NewMap[cellState](ep.cloneCellFn) })
	return ep
}

// cloneCellFn is the pooled-mode cell clone installed in pooled domain
// maps: splitting a cell duplicates its reader/reduction lists from the
// engine's list pool. The caller-supplied lane hint is derived from the
// first fragment's pointer — the clones of one hot domain keep hitting
// the same (uncontended) lane mutex.
func (ep *enginePools) cloneCellFn(c cellState) cellState {
	c.readers = ep.cloneList(c.readers)
	c.reds = ep.cloneList(c.reds)
	return c
}

func (ep *enginePools) cloneList(l *fragList) *fragList {
	if l.empty() {
		return nil
	}
	nl := ep.flists.Get(laneHintFrag(l.s[0]))
	nl.s = append(nl.s, l.s...)
	return nl
}

// laneHintFrag derives a stable list-pool lane from a fragment pointer.
func laneHintFrag(f *fragment) int {
	return int(uintptr(unsafe.Pointer(f)) >> 6)
}

// depMem is one shard's view of the engine pools: owner lanes entered only
// while holding that shard's lock, and the key of the shard (what it hands
// out it takes back; see recycleNode).
type depMem struct {
	ep     *enginePools
	key    shardKey
	frags  mempool.Lane[fragment]
	accs   mempool.Lane[access]
	amaps  mempool.Lane[regions.Map[*fragment]]
	dmaps  mempool.Lane[regions.Map[cellState]]
	flists mempool.Lane[fragList]
}

// everyShard is the depMem key of the global engine's one core, which hands
// out and takes back the objects of every shard key.
const everyShard = ^shardKey(0)

// owns reports whether objects keyed key came from m's lanes.
func (m *depMem) owns(key shardKey) bool {
	return m != nil && (m.key == key || m.key == everyShard)
}

func newDepMem(ep *enginePools, key shardKey) *depMem {
	m := &depMem{ep: ep, key: key}
	m.frags.Init(ep.frags)
	m.accs.Init(ep.accs)
	m.amaps.Init(ep.amaps)
	m.dmaps.Init(ep.dmaps)
	m.flists.Init(ep.flists.Global())
	return m
}

// MemStats aggregates the pool counters of one engine's free lists; the
// Outstanding fields are the leak accounting a drained runtime checks
// against zero.
type MemStats struct {
	Nodes, Fragments, Accesses, AccessMaps, DomainMaps mempool.Stats
	// FragLists counts the domain cells' pooled reader/reduction history
	// lists (split clones and first-reader growth in weakwait cascades).
	FragLists mempool.Stats
}

// Outstanding returns the total objects currently held out of the pools.
func (s MemStats) Outstanding() int64 {
	return s.Nodes.Outstanding() + s.Fragments.Outstanding() + s.Accesses.Outstanding() +
		s.AccessMaps.Outstanding() + s.DomainMaps.Outstanding() + s.FragLists.Outstanding()
}

func (ep *enginePools) memStats() MemStats {
	return MemStats{
		Nodes:      ep.nodes.Stats(),
		Fragments:  ep.frags.Stats(),
		Accesses:   ep.accs.Stats(),
		AccessMaps: ep.amaps.Stats(),
		DomainMaps: ep.dmaps.Stats(),
		FragLists:  ep.flists.Stats(),
	}
}

// newPooledNode takes a node from the pool and initializes it; hint
// spreads callers over the pool's lanes.
func (ep *enginePools) newPooledNode(hint int, parent *Node, label string, user any) *Node {
	n := ep.nodes.Get(hint)
	n.init(parent, label, user)
	return n
}

// unpin releases one pin on n and recycles it — cascading to ancestors —
// when the count reaches zero. m is the caller's shard lanes (nil when the
// caller holds no shard lock; sub-objects then go to the shared globals,
// which are safe from any goroutine).
func (ep *enginePools) unpin(n *Node, m *depMem) {
	for n != nil {
		if n.pins.Add(-1) != 0 {
			return
		}
		parent := n.parent
		ep.recycleNode(n, m)
		// The recycled node stops pinning its parent; the decrement may
		// cascade the drain upward.
		n = parent
	}
}

// putBack recycles one object through the caller's owner lane when it has
// one (recycling under a shard lock) or the shared global otherwise
// (node drains outside any shard lock, e.g. the completion-hold release).
func putBack[T any](lane *mempool.Lane[T], g *mempool.Global[T], p *T) {
	if lane != nil {
		lane.Put(p)
	} else {
		g.Put(p)
	}
}

// recycleNode returns a drained node and everything it owns to the pools.
// Only the goroutine that decremented pins to zero may call this; at that
// point no other goroutine can reach the node (see the file comment). What
// the caller's shard handed out goes back into its lanes; the node's objects
// of other shards go to the shared globals, from where their own lanes
// refill. A lane that took back more than it hands out would sit on objects
// — the rarely cycled, grown interval maps of an outer task above all —
// that the lanes they came from then allocate anew. The node itself goes
// back to the node-pool lane NewNode takes its siblings from (laneHint of
// the parent): one fixed lane for every drain outside a shard lock would
// put every dependency-free task's node through one mutex from all workers.
func (ep *enginePools) recycleNode(n *Node, m *depMem) {
	lane := laneHint(n.parent)
	for _, acc := range n.accesses {
		var frags *mempool.Lane[fragment]
		var accs *mempool.Lane[access]
		if m.owns(acc.key) {
			frags, accs = &m.frags, &m.accs
		}
		for _, f := range acc.frags {
			f.resetForPool()
			putBack(frags, ep.frags, f)
		}
		acc.resetForPool()
		putBack(accs, ep.accs, acc)
	}
	// The node's map table is kept, emptied in place, for its next life;
	// only the interval maps it points at are pooled.
	if t := n.maps.Load(); t != nil {
		ents := t.ents[:t.n.Load()]
		for i := range ents {
			var amaps *mempool.Lane[regions.Map[*fragment]]
			var dmaps *mempool.Lane[regions.Map[cellState]]
			if m.owns(ents[i].key) {
				amaps, dmaps = &m.amaps, &m.dmaps
			}
			if am := ents[i].am; am != nil {
				am.Reset()
				putBack(amaps, ep.amaps, am)
			}
			if dm := ents[i].dm; dm != nil {
				dm.Reset()
				putBack(dmaps, ep.dmaps, dm)
			}
		}
		clear(ents)
		t.n.Store(0)
	}
	n.resetForPool()
	ep.nodes.Put(lane, n)
}
