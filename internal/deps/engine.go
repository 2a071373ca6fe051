package deps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// Stats counts engine activity; useful for tests and for the ablation
// benchmarks that quantify dependency-tracking overhead (§VIII-A compares
// flat-taskwait against flat-depend for exactly this).
type Stats struct {
	// Nodes counts nodes created. The core runtime creates one per task
	// with a depend clause, plus one per domain a task without one opens
	// lazily (its first child with a depend clause, or a graph guard).
	Nodes     int64
	Fragments int64 // access fragments created by interval splitting
	Links     int64 // same-domain successor links
	Inbounds  int64 // cross-domain (parent→child) waiter links
	Grants    int64 // satisfaction grants delivered
	Handovers int64 // pieces handed over at weakwait / release directive
	Releases  int64 // pieces released
}

func (s *Stats) add(o Stats) {
	s.Nodes += o.Nodes
	s.Fragments += o.Fragments
	s.Links += o.Links
	s.Inbounds += o.Inbounds
	s.Grants += o.Grants
	s.Handovers += o.Handovers
	s.Releases += o.Releases
}

// Engine computes and enforces dependencies for a tree of Nodes. All
// methods are safe for concurrent use. Two implementations share the exact
// same linking and release semantics and differ only in their locking
// discipline:
//
//   - GlobalEngine serializes every operation behind one mutex (the
//     reference implementation, and the simplest to reason about).
//   - ShardedEngine partitions all dependency state per data object, and
//     per stripe of an object whose extent was declared, so tasks whose
//     depend clauses touch disjoint data or disjoint ranges register,
//     fragment, and release fully concurrently.
//
// The differential tests in this package drive both implementations in
// lockstep over randomly generated programs to prove them observably
// equivalent.
type Engine interface {
	// Stats returns a snapshot of the activity counters.
	Stats() Stats
	// LiveFragments returns the number of fragments not yet fully released.
	// A quiescent engine at the end of a run must report zero: a non-zero
	// value means dependencies leaked, which the runtime's Debug mode turns
	// into an end-of-run error.
	LiveFragments() int64
	// NewNode creates a node under parent (nil for a domain root: a node
	// that declares no access and only hosts a domain for its children).
	// The node must be registered with Register before it can become
	// ready.
	NewNode(parent *Node, label string, user any) *Node
	// Register links the node's depend entries into its parent's domain and
	// reports whether the node is immediately ready to execute (all strong
	// accesses satisfied — weak accesses never defer execution, §VI).
	Register(n *Node, specs []Spec) bool
	// The three release points append the nodes that became ready to out
	// (which may be nil) and return the extended slice, so a caller
	// cycling a scratch buffer pays no allocation per completion in steady
	// state.

	// BodyDoneInto implements the weakwait clause (§V): the task's code has
	// ended, so every access piece not covered by a live child access
	// releases immediately, and covered pieces are handed over to release
	// when the covering child accesses drain.
	BodyDoneInto(n *Node, out []*Node) []*Node
	// ReleaseRegionsInto implements the release directive (§V): the task
	// asserts it and its future subtasks will no longer reference the given
	// subset of its depend clause. Covered pieces are handed over /
	// released exactly as at weakwait, and the regions are removed from the
	// access map so future children cannot link through them. Types and
	// weakness in specs are ignored; only (Data, Ivs) select what to
	// release.
	ReleaseRegionsInto(n *Node, specs []Spec, out []*Node) []*Node
	// CompleteInto finalizes the node once its code and all descendants
	// have finished: every remaining piece is marked done and released as
	// soon as it is satisfied. For NoWait/Wait tasks this is the single
	// bulk release the paper attributes to taskwait-terminated tasks; for
	// WeakWait tasks it only sweeps pieces that were never handed over.
	//
	// Under a pooled engine (NewEngineMem with mempool.KindPooled) the
	// node — and, transitively, drained ancestors — may be recycled before
	// CompleteInto returns: the caller must not touch n afterwards except
	// through a NodeHandle captured earlier. The returned ready nodes are
	// always live (a ready node is not yet complete).
	CompleteInto(n *Node, out []*Node) []*Node

	// MemStats returns the engine's memory-pool counters; pooled reports
	// whether the engine recycles at all (false for reference engines,
	// whose MemStats is zero).
	MemStats() (stats MemStats, pooled bool)

	// SetEdgeHook installs fn to receive every dependency edge the engine
	// materializes — same-domain successor links (inbound=false) and
	// cross-domain parent→child satisfaction links (inbound=true) — or
	// uninstalls it when fn is nil. Unlike an Observer, the hook may be
	// installed and removed mid-run (the record-and-replay cache attaches
	// it only while a graph region is recording); the swap is atomic, and
	// an edge whose Register call started before the install may or may
	// not be delivered. fn runs under the engine lock covering the edge's
	// data object: it must be fast, must not call back into the engine,
	// and must do its own serialization if it aggregates across shards.
	// Note the delivered set is timing-dependent by design — an edge is
	// materialized only if the predecessor's piece was still unreleased
	// when the successor registered (see internal/replay for why a replay
	// cache must therefore not treat it as the complete semantic edge
	// set).
	SetEdgeHook(fn EdgeHook)
}

// EdgeHook observes materialized dependency edges (Engine.SetEdgeHook).
type EdgeHook func(pred, succ *Node, inbound bool)

// EngineKind selects an Engine implementation.
type EngineKind uint8

const (
	// EngineAuto resolves to EngineSharded, the engine the core runtime
	// always builds.
	EngineAuto EngineKind = iota
	// EngineGlobal is the single-mutex reference engine: the lockstep
	// oracle of this package's differential tests and the baseline row of
	// BenchmarkSubmitDisjoint.
	EngineGlobal
	// EngineSharded is the sharded engine (per data object and stripe).
	EngineSharded
)

// String returns the kind's name in benchmark and test labels.
func (k EngineKind) String() string {
	switch k {
	case EngineGlobal:
		return "global"
	case EngineSharded:
		return "sharded"
	}
	return "auto"
}

// NewEngineMem returns an engine of the given kind and memory mode.
// mempool.KindPooled recycles every dependency-lifecycle object (nodes,
// accesses, fragments, interval maps) through typed free lists; any other
// mode is the allocate-always reference. EngineAuto resolves to the
// sharded engine. The core runtime always builds the sharded engine with
// pooled memory; the other combinations are test oracles.
func NewEngineMem(kind EngineKind, obs Observer, mem mempool.Kind) Engine {
	pooled := mem == mempool.KindPooled
	if kind == EngineGlobal {
		return newGlobalEngine(obs, pooled)
	}
	return newShardedEngine(obs, pooled)
}

type evKind uint8

const (
	evGrant     evKind = iota // deliver (dR,dW) to frag over iv
	evDomainDec               // decrement liveCount in node's parent domain
	evDrain                   // a handed-over piece's cell drained
)

type event struct {
	kind evKind
	// frag is the grant/drain target, or — for evDomainDec — the released
	// fragment whose registration drains from the owner's domain (the
	// handler scrubs it from the visited cells' history).
	frag   *fragment
	iv     regions.Interval
	dR, dW int32
	owner  *Node // evDomainDec: domain owner (pinned while the event is queued)
	key    shardKey
}

// depCore holds the dependency structures' mutable bookkeeping — the event
// queue, the ready list, and the activity counters — together with every
// linking and cascade rule of the engine. It is the lock-free heart shared
// by both Engine implementations: GlobalEngine owns exactly one depCore
// behind one mutex; ShardedEngine owns one per shard (a stripe of a data
// object), each behind its own mutex. A depCore must only be entered while
// holding the owning lock, and every interval map it touches must belong to
// that lock's shard (for the global engine: everything).
//
// All cascade effects (satisfaction grants, domain drain, hand-over
// release) run through the explicit event queue so that no interval map is
// structurally modified while being iterated. Crucially, every event stays
// within the shard that produced it — successor links, inbound waiter
// links, domain cells, and hand-over targets all connect pieces that
// overlap, and every fragment is cut so that it lies in one shard — which is
// the property that makes sharding sound.
type depCore struct {
	queue []event
	ready []*Node
	// chain and pairs are scratch for fire and releaseSpec, reused like
	// queue and ready.
	chain []int32
	pairs []fragPiece
	// unpins holds the owners of fragments released since the queue last
	// drained (pooled mode), one entry per fragment; drainQueue unpins them.
	unpins []*Node
	stats  Stats
	// scanned counts the links fire walked: test instrumentation, read by
	// nothing in production (the cascade scaling test asserts that a cascade
	// examines the links of the pieces it touches, not of the fragment).
	scanned   int64
	liveFrags int64
	obs       Observer
	// hook points at the engine-wide edge-hook slot (shared by all shards;
	// set once at engine construction). The pointer load is the only cost
	// on the linking path while no hook is installed.
	hook *atomic.Pointer[EdgeHook]
	// mem is this core's view of the engine's free lists (nil in the
	// reference memory mode): lifecycle objects are allocated from and
	// recycled to it, entered only under the owning lock.
	mem *depMem
}

// wholeObject is the window of an unstriped shard: it clips nothing.
var wholeObject = regions.Iv(math.MinInt64, math.MaxInt64)

// registerSpec links the part of one depend entry of n that lies inside
// win, the index window of shard key. The caller holds the lock covering
// key and has already run the registration-wide sanity checks.
// Registration only creates fragments and charges pending grants — it never
// releases anything, so no event can be queued here.
func (c *depCore) registerSpec(n *Node, spec Spec, key shardKey, win regions.Interval) {
	var acc *access
	var am *regions.Map[*fragment]
	for _, iv := range spec.Ivs {
		iv = iv.Intersect(win)
		if iv.Empty() {
			continue
		}
		if acc == nil {
			if c.mem != nil {
				acc = c.mem.accs.Get()
				acc.node, acc.spec, acc.key = n, spec, key
			} else {
				acc = &access{node: n, spec: spec, key: key}
			}
			n.accesses = append(n.accesses, acc)
			am = n.accessMapEnsure(key, c.mem)
		}
		overlap := false
		am.PeekRange(iv, func(regions.Interval, **fragment) bool { overlap = true; return false })
		if overlap {
			panic(fmt.Sprintf("deps: task %q declares overlapping depend entries over data %d %v", n.label, spec.Data, iv))
		}
		var f *fragment
		if c.mem != nil {
			f = c.mem.frags.Get()
			f.init(acc, iv)
			n.pins.Add(1) // released when the fragment fully releases
		} else {
			f = newFragment(acc, iv)
		}
		acc.frags = append(acc.frags, f)
		c.stats.Fragments++
		c.liveFrags++
		c.linkFragment(n, f)
		am.Set(iv, f)
	}
}

// linkFragment fragments f against the parent domain and links each cell.
func (c *depCore) linkFragment(n *Node, f *fragment) {
	dm := n.parent.domainEnsure(f.key(), c.mem)
	dm.Materialize(f.iv,
		func(regions.Interval) cellState { return cellState{} },
		func(cIv regions.Interval, cs *cellState) {
			c.linkCell(n, f, cIv, cs)
		})
}

// linkCell links fragment f over one domain cell: RAW/WAR/WAW edges against
// the in-domain history, or an inbound link through the parent's own access
// when the cell has no usable history (§VI). Reduction accesses (§X) form
// commuting groups: they link after prior writers/readers but not after
// each other, and everything later links after the whole group.
func (c *depCore) linkCell(n *Node, f *fragment, cIv regions.Interval, cs *cellState) {
	virgin := cs.lastWriter == nil && !cs.written
	switch f.typ() {
	case In:
		if !cs.reds.empty() {
			// A reader after a reduction group waits for every member.
			for _, rd := range cs.reds.frags() {
				c.linkAfter(rd, f, cIv, 1, 0)
			}
		} else if cs.lastWriter != nil {
			c.linkAfter(cs.lastWriter, f, cIv, 1, 0)
		} else if !cs.written {
			c.inbound(n, f, cIv, false)
		}
		cs.readers = c.listAppend(cs.readers, f)
	case Red:
		// Order after the pre-group history; commute with other members.
		// Note: written is NOT set — each group member on a virgin base
		// must inbound-link individually (like concurrent readers), and
		// later accesses order after the group members transitively.
		if cs.lastWriter != nil {
			c.linkAfter(cs.lastWriter, f, cIv, 1, 1)
		}
		for _, r := range cs.readers.frags() {
			c.linkAfter(r, f, cIv, 0, 1)
		}
		if virgin {
			c.inbound(n, f, cIv, true)
		}
		cs.reds = c.listAppend(cs.reds, f)
	default: // Out, InOut
		if cs.lastWriter != nil {
			c.linkAfter(cs.lastWriter, f, cIv, 1, 1)
		}
		for _, r := range cs.readers.frags() {
			c.linkAfter(r, f, cIv, 0, 1)
		}
		for _, rd := range cs.reds.frags() {
			c.linkAfter(rd, f, cIv, 1, 1)
		}
		if virgin {
			c.inbound(n, f, cIv, true)
		}
		cs.lastWriter = f
		c.listDrop(&cs.readers) // the write dissolves the history
		c.listDrop(&cs.reds)
		cs.written = true
	}
	cs.liveCount++
}

// listAppend appends f to a cell history list, drawing a pooled list when
// the cell has none yet. Caller holds the owning shard's lock.
func (c *depCore) listAppend(l *fragList, f *fragment) *fragList {
	if l == nil {
		if c.mem != nil {
			l = c.mem.flists.Get()
		} else {
			l = &fragList{}
		}
	}
	l.s = append(l.s, f)
	return l
}

// listDrop empties a cell history list and returns it to the pool,
// restoring the nil-on-empty invariant (reference mode leaves it to the
// collector).
func (c *depCore) listDrop(lp **fragList) {
	l := *lp
	if l == nil {
		return
	}
	l.resetForPool()
	if c.mem != nil {
		c.mem.flists.Put(l)
	}
	*lp = nil
}

// listRemove deletes f from a cell history list, recycling the list when
// it empties.
func (c *depCore) listRemove(lp **fragList, f *fragment) {
	l := *lp
	if l == nil {
		return
	}
	l.s = removeFrag(l.s, f)
	if len(l.s) == 0 {
		c.listDrop(lp)
	}
}

// scrubCell removes the released fragment f from the cell's access
// history. Observably equivalent to keeping it — linkAfter over a fully
// released fragment creates no links and charges nothing, and the written
// flag (not the lastWriter pointer) is what suppresses inbound linking —
// but it unpins the fragment's memory from the domain: without the scrub
// a released fragment would stay reachable as history for as long as the
// cell lives, which both leaks it (reference mode) and forbids recycling
// it (pooled mode). Scrubbed cells also merge better: drained neighbors
// compare equal once their dead writers are gone.
func (c *depCore) scrubCell(cs *cellState, f *fragment) {
	if cs.lastWriter == f {
		cs.lastWriter = nil // written stays true: the history is still "dirty"
	}
	c.listRemove(&cs.readers, f)
	c.listRemove(&cs.reds, f)
}

// linkAfter creates successor links from every unreleased piece of pred
// inside iv to g, and charges the corresponding pending grants to g. A
// predecessor with nothing unreleased inside iv is left unsplit.
func (c *depCore) linkAfter(pred, g *fragment, iv regions.Interval, dR, dW int32) {
	if pred.node() == g.node() {
		// A task never depends on itself; overlapping own entries are
		// rejected at registration, so this only guards engine internals.
		return
	}
	if !pred.anyPiece(iv, func(ps *pieceState) bool { return !ps.released }) {
		return
	}
	pred.state.VisitRange(iv, func(pIv regions.Interval, ps *pieceState) {
		if ps.released {
			return
		}
		c.addPending(g, pIv, dR, dW)
		pred.addLink(ps, pIv, linkSucc, g, dR, dW)
		c.stats.Links++
		if c.obs != nil {
			c.obs.Link(pred.node(), g.node(), g.data(), pIv, false)
		}
		if h := c.hook.Load(); h != nil {
			(*h)(pred.node(), g.node(), false)
		}
	})
}

// inbound links fragment f over cIv through the parent's own access
// fragments: the child waits for the parent access's read (reader) or write
// (writer) satisfaction. Intervals with no covering parent access are
// unprotected and impose no ordering. A parent access already satisfied over
// cIv imposes none either, and is looked at without being split: neither the
// parent's access map nor the fragment's state fragments for a child that
// will not link (a weak outer access is otherwise cut into one piece per
// leaf under it).
func (c *depCore) inbound(n *Node, f *fragment, cIv regions.Interval, isWrite bool) {
	parent := n.parent
	am := parent.accessMapFor(f.key())
	if am == nil {
		return
	}
	kind, dW := linkRWaiter, int32(0)
	unsat := func(ps *pieceState) bool { return !ps.rSat() }
	if isWrite {
		kind, dW = linkWWaiter, 1
		unsat = func(ps *pieceState) bool { return !ps.wSat() }
	}
	am.PeekRange(cIv, func(aIv regions.Interval, pfp **fragment) bool {
		pf := *pfp
		if isWrite && pf.typ() == In {
			panic(fmt.Sprintf("deps: task %q writes data %d %v which parent %q covers with a read-only access",
				n.label, f.data(), aIv, parent.label))
		}
		if !pf.anyPiece(aIv, unsat) {
			return true
		}
		pf.state.VisitRange(aIv, func(pIv regions.Interval, ps *pieceState) {
			if !unsat(ps) {
				return
			}
			c.addPending(f, pIv, 1, dW)
			pf.addLink(ps, pIv, kind, f, 1, dW)
			c.stats.Inbounds++
			if c.obs != nil {
				c.obs.Link(parent, n, f.data(), pIv, true)
			}
			if h := c.hook.Load(); h != nil {
				(*h)(parent, n, true)
			}
		})
		return true
	})
}

// addPending charges (dR,dW) outstanding grants to g over iv, maintaining
// the owner node's unsatisfied-length accounting for strong accesses.
func (c *depCore) addPending(g *fragment, iv regions.Interval, dR, dW int32) {
	n := g.node()
	strong := !g.weak()
	reader := g.typ() == In
	g.state.VisitRange(iv, func(pIv regions.Interval, ps *pieceState) {
		if dR > 0 {
			if strong && reader && ps.pendR == 0 {
				n.unsat.Add(pIv.Len())
			}
			ps.pendR += dR
		}
		if dW > 0 {
			if strong && !reader && ps.pendW == 0 {
				n.unsat.Add(pIv.Len())
			}
			ps.pendW += dW
		}
	})
}

// releaseSpec applies the release directive to the part of one spec inside
// win, the index window of shard key: covered pieces are handed over /
// released exactly as at weakwait, and the regions are removed from the
// access map so future children cannot link through them. The caller holds
// the lock covering key.
func (c *depCore) releaseSpec(n *Node, spec Spec, key shardKey, win regions.Interval) {
	am := n.accessMapFor(key)
	if am == nil {
		return
	}
	for _, iv := range spec.Ivs {
		iv = iv.Intersect(win)
		if iv.Empty() {
			continue
		}
		am.VisitRange(iv, func(aIv regions.Interval, pfp **fragment) {
			c.pairs = append(c.pairs, fragPiece{*pfp, aIv})
		})
		for _, p := range c.pairs {
			c.handOverOrRelease(n, p.f, p.iv)
		}
		clear(c.pairs)
		c.pairs = c.pairs[:0]
		am.Remove(iv)
	}
}

// fragPiece names a part of a fragment (releaseSpec's work list).
type fragPiece struct {
	f  *fragment
	iv regions.Interval
}

// handOverOrRelease applies the fine-grained release logic to fragment f
// over iv: pieces over live inner-domain cells are handed over; everything
// else is marked done (released once satisfied).
func (c *depCore) handOverOrRelease(n *Node, f *fragment, iv regions.Interval) {
	dm := n.domainFor(f.key())
	if dm == nil {
		c.markDone(f, iv)
		return
	}
	dm.VisitRangeGaps(iv,
		func(cIv regions.Interval, cs *cellState) {
			if cs.liveCount > 0 {
				if cs.handover != nil && cs.handover != f {
					panic("deps: conflicting hand-over targets over one cell")
				}
				cs.handover = f
				c.stats.Handovers++
				f.state.VisitRange(cIv, func(pIv regions.Interval, ps *pieceState) {
					if !ps.released {
						ps.done = true
						ps.waitDrain = true
					}
				})
				if c.obs != nil {
					c.obs.Handover(n, f.data(), cIv)
				}
			} else {
				c.markDone(f, cIv)
			}
		},
		func(gap regions.Interval) {
			c.markDone(f, gap)
		})
}

// markDone marks f's pieces over iv as having reached their completion
// point and releases the ones already satisfied.
func (c *depCore) markDone(f *fragment, iv regions.Interval) {
	f.state.VisitRange(iv, func(pIv regions.Interval, ps *pieceState) {
		if ps.released {
			return
		}
		ps.done = true
		ps.waitDrain = false
		c.tryRelease(f, pIv, ps)
	})
	f.state.MergeRange(iv, releasedEqual)
}

// releasedEqual merges adjacent fully released pieces: once released, no
// field of a piece is ever read again (tryRelease normalizes the counters),
// so all released pieces are interchangeable. Without this coalescing a
// long-lived fragment — e.g. the whole-range weak access of an outer task —
// accumulates one map entry per piece-wise release of its subtree and every
// later split pays a linear shift, turning deep weakwait cascades
// quadratic.
func releasedEqual(a, b pieceState) bool { return a.released && b.released }

// tryRelease releases the piece if all release conditions hold. Cascade
// effects are pushed on the event queue.
func (c *depCore) tryRelease(f *fragment, pIv regions.Interval, ps *pieceState) {
	if ps.released || !ps.done || ps.waitDrain || !ps.typeSat(f.typ()) {
		return
	}
	ps.released = true
	// Normalize the dead piece so adjacent released pieces compare equal
	// and coalesce (releasedEqual); nothing reads these fields afterwards.
	ps.pendR, ps.pendW = 0, 0
	c.stats.Releases++
	f.relLen += pIv.Len()
	full := f.relLen == f.iv.Len()
	if full {
		c.liveFrags--
	}
	if c.obs != nil {
		c.obs.Released(f.node(), f.data(), pIv)
	}
	c.fire(f, ps, pIv, linkSucc)
	if parent := f.node().parent; parent != nil {
		if c.mem != nil {
			// The queued event will touch parent's domain map: pin the
			// parent so a concurrent drain cascade cannot recycle it (and
			// the map) before the event is processed.
			parent.pins.Add(1)
		}
		c.queue = append(c.queue, event{kind: evDomainDec, frag: f, owner: parent, key: f.key(), iv: pIv})
	}
	if full && c.mem != nil {
		// The fragment's last piece released: its pin on the owning node
		// drops when the queue has drained (drainQueue), not here — the
		// caller is still visiting and merging the fragment's pieces, and
		// once the pin is gone a cascade under another shard's lock may
		// recycle the node, fragments and all.
		c.unpins = append(c.unpins, f.node())
	}
}

// drainQueue processes cascade events until quiescence. Each handler visits
// exactly one interval map and defers further effects to the queue. Every
// operation that can release a piece ends here, so this is also where the
// pins of fully released fragments drop, once nothing touches them anymore.
func (c *depCore) drainQueue() {
	for i := 0; i < len(c.queue); i++ {
		ev := c.queue[i]
		switch ev.kind {
		case evGrant:
			c.handleGrant(ev.frag, ev.iv, ev.dR, ev.dW)
		case evDomainDec:
			c.handleDomainDec(ev.owner, ev.key, ev.iv, ev.frag)
		case evDrain:
			c.handleDrain(ev.frag, ev.iv)
		}
	}
	c.queue = c.queue[:0]
	for _, n := range c.unpins {
		c.mem.ep.unpin(n, c.mem)
	}
	clear(c.unpins)
	c.unpins = c.unpins[:0]
}

// handleGrant delivers a satisfaction grant to frag over iv, firing
// satisfaction transitions: node readiness for strong accesses, waiter
// grants for weak linking points, and release checks.
func (c *depCore) handleGrant(f *fragment, iv regions.Interval, dR, dW int32) {
	c.stats.Grants++
	n := f.node()
	strong := !f.weak()
	reader := f.typ() == In
	f.state.VisitRange(iv, func(pIv regions.Interval, ps *pieceState) {
		rSatNow, wSatNow := false, false
		if dR > 0 {
			if ps.pendR < dR {
				panic("deps: read-satisfaction grant underflow")
			}
			ps.pendR -= dR
			rSatNow = ps.pendR == 0
		}
		if dW > 0 {
			if ps.pendW < dW {
				panic("deps: write-satisfaction grant underflow")
			}
			ps.pendW -= dW
			wSatNow = ps.pendW == 0
		}
		if strong {
			if (reader && rSatNow) || (!reader && wSatNow) {
				c.nodeSatisfy(n, pIv.Len(), f.data())
			}
		}
		if rSatNow {
			c.fire(f, ps, pIv, linkRWaiter)
		}
		if wSatNow {
			c.fire(f, ps, pIv, linkWWaiter)
		}
		c.tryRelease(f, pIv, ps)
	})
	f.state.MergeRange(iv, releasedEqual)
}

// fire queues a grant for every link of the given kind chained from piece
// ps of f (the piece over pIv). Only that chain is walked: the links created
// over this piece or over a piece it was split from, each of which covers
// pIv entirely — the intersection below re-checks that rather than trusting
// it. Chains run newest-first; the grants are queued oldest-first, the order
// in which the successors registered, so nodes readied by one release keep
// their program order.
func (c *depCore) fire(f *fragment, ps *pieceState, pIv regions.Interval, kind linkKind) {
	at := ps.links
	if at == 0 {
		return
	}
	chain := c.chain[:0]
	for ; at != 0; at = f.links[at-1].next {
		c.scanned++
		if f.links[at-1].kind == kind {
			chain = append(chain, at-1)
		}
	}
	for k := len(chain) - 1; k >= 0; k-- {
		l := &f.links[chain[k]]
		if ov := l.iv.Intersect(pIv); !ov.Empty() {
			c.queue = append(c.queue, event{kind: evGrant, frag: l.target, iv: ov, dR: int32(l.dR), dW: int32(l.dW)})
		}
	}
	c.chain = chain
}

// handleDomainDec decrements the live-registration count of the owner's
// domain cells over iv, scrubbing the released fragment f from the cells'
// access history (see cellState.scrub); cells that drain fire their
// pending hand-over.
func (c *depCore) handleDomainDec(owner *Node, key shardKey, iv regions.Interval, f *fragment) {
	dm := owner.domainFor(key)
	if dm == nil {
		panic("deps: domain-dec on missing domain")
	}
	dm.VisitRange(iv, func(cIv regions.Interval, cs *cellState) {
		if cs.liveCount <= 0 {
			panic("deps: domain live-count underflow")
		}
		cs.liveCount--
		c.scrubCell(cs, f)
		if cs.liveCount == 0 && cs.handover != nil {
			h := cs.handover
			cs.handover = nil
			c.queue = append(c.queue, event{kind: evDrain, frag: h, iv: cIv})
		}
	})
	dm.MergeRange(iv, drainedCellsEqual)
	if c.mem != nil {
		// The event's hold on the owner (placed when it was queued) ends.
		c.mem.ep.unpin(owner, c.mem)
	}
}

// drainedCellsEqual merges adjacent drained domain cells. Cells split at
// the boundaries of every child fragment piece that releases over them;
// once drained (no live registration, no pending hand-over, no reader or
// reduction history) two neighbors with the same writer history behave
// identically for all future registrations, so the split can be undone.
// Without this, an outer task's domain accumulates one cell per descendant
// release and deep weakwait programs turn quadratic. History lists obey
// the nil-on-empty invariant, so merged (dropped) cells never strand a
// pooled list.
func drainedCellsEqual(a, b cellState) bool {
	return a.liveCount == 0 && b.liveCount == 0 &&
		a.handover == nil && b.handover == nil &&
		a.readers.empty() && b.readers.empty() &&
		a.reds.empty() && b.reds.empty() &&
		a.lastWriter == b.lastWriter && a.written == b.written
}

// handleDrain completes the hand-over: the inner-domain cells covering this
// piece have fully drained, so the piece may release (once satisfied).
func (c *depCore) handleDrain(f *fragment, iv regions.Interval) {
	f.state.VisitRange(iv, func(pIv regions.Interval, ps *pieceState) {
		if ps.released {
			return
		}
		ps.waitDrain = false
		c.tryRelease(f, pIv, ps)
	})
	f.state.MergeRange(iv, releasedEqual)
}

// nodeSatisfy credits length satisfied elements to n's strong accesses.
// The counter is atomic so that grants delivered concurrently from
// different shards need no common lock; the registration hold (see
// Register in either engine) guarantees the count cannot reach zero before
// registration finished, and the notified CAS elects exactly one ready
// transition. data is the object whose grant is being credited; the
// electing grant records it as the node's readiness-locality hint, which
// the runtime threads through to the ready-pool shard choice (the worker
// that delivered the final grant has the producing data warm).
func (c *depCore) nodeSatisfy(n *Node, length int64, data DataID) {
	rem := n.unsat.Add(-length)
	if rem < 0 {
		panic("deps: node unsatisfied-length underflow")
	}
	if rem == 0 && n.notified.CompareAndSwap(false, true) {
		n.readyData = int64(data)
		c.ready = append(c.ready, n)
		if c.obs != nil {
			c.obs.NodeReady(n)
		}
	}
}

// appendReady drains the ready list accumulated by the cascades into out —
// the sharded engine accumulates ready nodes across several shards into one
// slice.
func (c *depCore) appendReady(out []*Node) []*Node {
	if len(c.ready) == 0 {
		return out
	}
	out = append(out, c.ready...)
	c.ready = c.ready[:0]
	return out
}

// checkRegister runs the registration sanity checks shared by both engines
// and places the registration hold on n's readiness counter: while held,
// grants delivered concurrently (sharded engine) cannot observe a zero
// unsatisfied count, so a node never becomes ready mid-registration.
func checkRegister(n *Node, specs []Spec) {
	if n.registered {
		panic("deps: node registered twice: " + n.label)
	}
	if len(specs) > 0 && n.parent == nil {
		panic("deps: root node cannot have dependencies")
	}
	n.unsat.Add(1)
}

// finishRegister marks registration complete, releases the hold, and
// reports whether the node is immediately ready. obs may be nil.
func finishRegister(n *Node, obs Observer) bool {
	n.registered = true
	if n.unsat.Add(-1) == 0 && n.notified.CompareAndSwap(false, true) {
		if obs != nil {
			obs.NodeReady(n)
		}
		return true
	}
	return false
}

// syncObserver serializes observer callbacks: the sharded engine fires
// events from several shards concurrently, but the Observer contract
// (graph capture, tests) assumes sequential delivery.
type syncObserver struct {
	mu    sync.Mutex
	inner Observer
}

func wrapObserver(obs Observer) Observer {
	if obs == nil {
		return nil
	}
	return &syncObserver{inner: obs}
}

func (o *syncObserver) NodeCreated(n, parent *Node) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.NodeCreated(n, parent)
}

func (o *syncObserver) NodeReady(n *Node) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.NodeReady(n)
}

func (o *syncObserver) Link(pred, succ *Node, data DataID, iv regions.Interval, inbound bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.Link(pred, succ, data, iv, inbound)
}

func (o *syncObserver) Handover(n *Node, data DataID, iv regions.Interval) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.Handover(n, data, iv)
}

func (o *syncObserver) Released(n *Node, data DataID, iv regions.Interval) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.Released(n, data, iv)
}
