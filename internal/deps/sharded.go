package deps

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
)

// ShardedEngine partitions the dependency engine per data object: every
// DataID owns a shard with its own mutex, interval maps (reached through
// the nodes' per-data access and domain maps), cascade event queue, and
// activity counters. Tasks whose depend clauses touch disjoint data
// register, fragment, and release fully concurrently — the contention
// pathology of a single engine-wide lock (every submit and every release
// serialized, no matter how unrelated) disappears.
//
// Sharding per data is sound because every dependency structure and every
// cascade event is confined to one DataID:
//
//   - same-domain successor links connect fragments of the same data;
//   - inbound waiter links connect a child fragment to the parent's access
//     over the same data;
//   - domain cells, hand-over targets, and drain events belong to the data
//     whose accesses cover them.
//
// The only state shared across shards is per-node: the readiness countdown
// (unsat) and its one-shot ready election (notified), both atomics, so a
// node whose depend clause spans several data objects becomes ready the
// moment the last shard delivers its last grant — with no lock common to
// the shards involved. A registration hold (+1 on the countdown for the
// duration of Register) keeps the node from becoming ready while later
// entries of a multi-object clause are still linking. In the pooled memory
// mode the node's pin countdown is a third cross-shard atomic: fragments
// releasing under different shard locks all unpin the same node, and the
// transition to zero elects the one recycler.
//
// Multi-object operations (Register, BodyDone, ReleaseRegions, Complete)
// visit the shards of their specs in canonical ascending-DataID order, one
// at a time — no shard lock is ever held while acquiring another, so the
// engine is trivially deadlock-free.
type ShardedEngine struct {
	obs      Observer // wrapped: callbacks serialized across shards
	nodes    atomic.Int64
	ep       *enginePools // nil in the reference memory mode
	hookSlot atomic.Pointer[EdgeHook]

	// shards is a copy-on-write table indexed by DataID (data ids are
	// allocated densely from zero): the hot-path lookup is one atomic load
	// and an index, with no read lock to contend on. Growth (first touch
	// of a new data object) clones the table under mu and swaps it in.
	shards atomic.Pointer[[]*shard]
	mu     sync.Mutex
}

type shard struct {
	mu sync.Mutex
	c  depCore
}

var _ Engine = (*ShardedEngine)(nil)

// NewShardedEngine returns a per-data-object sharded engine with the
// reference (allocate-always) memory mode. obs may be nil; callbacks are
// serialized, so observers written for the global engine work unchanged.
func NewShardedEngine(obs Observer) *ShardedEngine {
	return newShardedEngine(obs, false)
}

func newShardedEngine(obs Observer, pooled bool) *ShardedEngine {
	e := &ShardedEngine{obs: wrapObserver(obs)}
	if pooled {
		e.ep = newEnginePools()
	}
	e.shards.Store(new([]*shard))
	return e
}

// shardFor returns the shard owning data, creating it on first use.
func (e *ShardedEngine) shardFor(data DataID) *shard {
	if t := *e.shards.Load(); int(data) < len(t) {
		if sh := t[data]; sh != nil {
			return sh
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := *e.shards.Load()
	if int(data) >= len(t) {
		grown := make([]*shard, data+1)
		copy(grown, t)
		t = grown
	} else {
		t = append([]*shard(nil), t...)
	}
	sh := t[data]
	if sh == nil {
		sh = &shard{}
		sh.c.obs = e.obs
		sh.c.hook = &e.hookSlot
		if e.ep != nil {
			sh.c.mem = newDepMem(e.ep, int(data))
		}
		t[data] = sh
	}
	e.shards.Store(&t)
	return sh
}

// allShards snapshots the shard table for the aggregate accessors.
func (e *ShardedEngine) allShards() []*shard {
	return *e.shards.Load()
}

// SetEdgeHook installs (or, with nil, uninstalls) the edge-export hook;
// see the Engine contract. The hook fires under the shard lock of the
// edge's data object, so edges of different data objects may be delivered
// concurrently.
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
	for _, sh := range e.allShards() {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		st.add(sh.c.stats)
		sh.mu.Unlock()
	}
	return st
}

// LiveFragments returns the number of fragments not yet fully released,
// summed over all shards.
func (e *ShardedEngine) LiveFragments() int64 {
	var live int64
	for _, sh := range e.allShards() {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		live += sh.c.liveFrags
		sh.mu.Unlock()
	}
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
// by shard in canonical DataID order, and reports whether the node is
// immediately ready. Registration only creates links and charges pending
// grants — it releases nothing — so each shard's section is self-contained
// and no lock spans two shards; the registration hold keeps concurrent
// grants from readying the node until every entry is linked.
func (e *ShardedEngine) Register(n *Node, specs []Spec) bool {
	checkRegister(n, specs)
	n.datas = specDatas(n.data0[:0], specs)
	for _, data := range n.datas {
		e.shardFor(data).locked(func(c *depCore) {
			for i := range specs {
				if specs[i].Data == data {
					c.registerSpec(n, specs[i])
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

// BodyDone implements the weakwait clause (§V): hand-over or release of
// every access piece, shard by shard. Each shard's cascade runs to
// quiescence under that shard's lock before the next shard is visited; the
// ready nodes collected across shards are returned together.
func (e *ShardedEngine) BodyDone(n *Node) []*Node {
	return e.BodyDoneInto(n, nil)
}

// BodyDoneInto implements the weakwait clause (§V), appending the nodes
// that became ready to out.
func (e *ShardedEngine) BodyDoneInto(n *Node, out []*Node) []*Node {
	for _, data := range n.datas {
		e.shardFor(data).locked(func(c *depCore) {
			for _, acc := range n.accesses {
				if acc.spec.Data != data {
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

// ReleaseRegions implements the release directive (§V), shard by shard in
// canonical DataID order.
func (e *ShardedEngine) ReleaseRegions(n *Node, specs []Spec) []*Node {
	return e.ReleaseRegionsInto(n, specs, nil)
}

// ReleaseRegionsInto implements the release directive (§V), appending the
// nodes that became ready to out.
func (e *ShardedEngine) ReleaseRegionsInto(n *Node, specs []Spec, out []*Node) []*Node {
	var buf [inlineDatas]DataID
	for _, data := range specDatas(buf[:0], specs) {
		e.shardFor(data).locked(func(c *depCore) {
			for i := range specs {
				if specs[i].Data == data {
					c.releaseSpec(n, specs[i])
				}
			}
			c.drainQueue()
			out = c.appendReady(out)
		})
	}
	return out
}

// Complete finalizes the node once its code and all descendants have
// finished, shard by shard. Under the pooled memory mode the node may be
// recycled before Complete returns; see the Engine contract.
func (e *ShardedEngine) Complete(n *Node) []*Node {
	return e.CompleteInto(n, nil)
}

// CompleteInto finalizes the node, appending the nodes that became ready
// to out.
func (e *ShardedEngine) CompleteInto(n *Node, out []*Node) []*Node {
	n.completed = true
	datas := n.datas
	for _, data := range datas {
		// Failpoint: interleave the per-shard completion visits of a
		// multi-object clause against concurrent registrations and other
		// completions over the same data.
		chaos.Maybe(chaos.DepsCascade)
		e.shardFor(data).locked(func(c *depCore) {
			for _, acc := range n.accesses {
				if acc.spec.Data != data {
					continue
				}
				for _, f := range acc.frags {
					c.markDone(f, f.iv)
				}
			}
			c.drainQueue()
			out = c.appendReady(out)
		})
	}
	if e.ep != nil {
		// Failpoint: delay the completion hold's pin release, racing the
		// recycle election against fragments unpinning under shard locks.
		chaos.Maybe(chaos.DepsPinRelease)
		// Release the completion hold (outside any shard lock: the pools
		// are their own synchronization domain). If every fragment has
		// released and every child drained, this recycles the node.
		e.ep.unpin(n, nil)
	}
	return out
}
