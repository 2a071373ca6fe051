package deps

import (
	"slices"

	"repro/internal/regions"
)

// access is the part of one registered Spec of a node that lies in one
// shard: its fragments are the spec's intervals cut to that shard's stripe.
type access struct {
	node  *Node
	spec  Spec
	key   shardKey
	frags []*fragment
}

// resetForPool clears the access for reuse, keeping the frags slice's
// capacity. The fragments themselves are recycled separately.
func (a *access) resetForPool() {
	a.node = nil
	a.spec = Spec{} // drops the Ivs reference to the caller's slice
	a.key = 0
	clear(a.frags)
	a.frags = a.frags[:0]
}

// fragment is the unit of dependency tracking: one contiguous interval of
// one access. Per-subinterval state lives in a fragmenting map of pieceState
// values, so partially overlapping later accesses, partial releases
// (weakwait hand-over, release directive) and partial satisfaction all
// fragment the state in place with no structural fix-ups.
type fragment struct {
	acc *access
	iv  regions.Interval
	// state is held by value: the per-piece interval map lives inline in
	// the fragment, so creating a fragment costs one allocation (or none,
	// pooled) and resetting it keeps the entries slice's capacity.
	state regions.Map[pieceState]

	// relLen is the total released element length; the fragment is fully
	// released (and leaves the engine's live count) when it reaches
	// iv.Len().
	relLen int64

	// links is the arena of every dependency edge leaving this fragment:
	// same-domain successor links, created at the successors' registration
	// (a released piece grants the target over the overlap), and inbound
	// waiter links from child fragments — fragments of tasks nested inside
	// this fragment's owner — waiting for this fragment's read or write
	// satisfaction over their interval, the linking-point role of weak
	// accesses (§VI). A link is created over one piece of state and chained
	// from that piece (pieceState.links), so firing a piece walks the links
	// that concern it and no others. The arena only grows during the
	// fragment's life and is addressed by index, so growth never invalidates
	// a chain.
	links []link
}

// pieceState is the per-subinterval state of a fragment. It is a pure value
// type: splitting an interval entry duplicates it verbatim, which is
// semantically correct for every field (counters and flags apply uniformly
// across the piece).
type pieceState struct {
	// pendR counts outstanding grants required for read satisfaction
	// (prior writers, transitively through weak parents). pendW counts the
	// grants required for write satisfaction (prior writers and readers).
	pendR, pendW int32
	// links heads the chain of links created over this piece or a piece it
	// was split from: index+1 into the fragment's arena, 0 for none. A chain
	// is a cons list — a new link points at the previous head and nothing
	// already chained is ever rewritten — so the two halves of a split piece
	// share their common tail by copying the head, which the map's value
	// copy does. Every link in a piece's chain covers the whole piece.
	links int32
	// done marks that the owner task reached this piece's completion point:
	// full completion, weakwait body exit, or a release directive.
	done bool
	// waitDrain marks a piece handed over at weakwait: it releases when the
	// covering child accesses drain from the inner domain.
	waitDrain bool
	released  bool
}

// rSat reports read satisfaction of the piece.
func (ps pieceState) rSat() bool { return ps.pendR == 0 }

// wSat reports write satisfaction of the piece.
func (ps pieceState) wSat() bool { return ps.pendW == 0 }

// typeSat reports the satisfaction relevant for the fragment's own access
// type: readers only need read satisfaction; writers (including
// reductions, which write) need exclusivity against everything before
// their group.
func (ps pieceState) typeSat(t AccessType) bool {
	if t == In {
		return ps.rSat()
	}
	return ps.wSat()
}

// linkKind says which transition of the source piece fires a link.
type linkKind uint8

const (
	linkSucc    linkKind = iota // the piece releases
	linkRWaiter                 // the piece becomes read-satisfied
	linkWWaiter                 // the piece becomes write-satisfied
)

// link records a dependency edge over an explicit interval: firing it grants
// (dR, dW) to target over the part of iv inside the fired piece.
type link struct {
	target *fragment
	iv     regions.Interval
	// next continues the chain this link was added to (pieceState.links
	// encoding).
	next   int32
	kind   linkKind
	dR, dW uint8
}

// addLink records an edge from piece ps (the piece of f.state over pIv) to
// target and puts it at the head of the piece's chain.
func (f *fragment) addLink(ps *pieceState, pIv regions.Interval, kind linkKind, target *fragment, dR, dW int32) {
	f.links = append(f.links, link{target: target, iv: pIv, next: ps.links, kind: kind, dR: uint8(dR), dW: uint8(dW)})
	ps.links = int32(len(f.links))
}

// anyPiece reports whether want holds for some piece of f overlapping iv,
// without splitting anything: the look before a linking visit, which only
// fragments f.state when a link will actually be written. The look ends at
// the first such piece.
func (f *fragment) anyPiece(iv regions.Interval, want func(*pieceState) bool) bool {
	found := false
	f.state.PeekRange(iv, func(_ regions.Interval, ps *pieceState) bool {
		found = want(ps)
		return !found
	})
	return found
}

func newFragment(acc *access, iv regions.Interval) *fragment {
	f := &fragment{}
	f.init(acc, iv)
	return f
}

// init prepares a fresh or pool-recycled fragment for a new access piece.
// All other fields are empty: either the struct is new, or resetForPool
// restored them (keeping slice and map capacities).
func (f *fragment) init(acc *access, iv regions.Interval) {
	f.acc, f.iv = acc, iv
	f.state.Set(iv, pieceState{})
}

// resetForPool clears the fragment for reuse. Stale outgoing links are
// dropped here; stale *incoming* links (this fragment as the target of a
// link in some predecessor's arena) are safe to leave behind because a
// fully released fragment has, by the pending-grant invariant, already
// received every grant any link will ever deliver: each piece of the
// predecessor fires its chain once per transition, and all of those firings
// precede the target's last release (see the memory lifecycle section of
// docs/ARCHITECTURE.md).
func (f *fragment) resetForPool() {
	f.acc = nil
	f.iv = regions.Interval{}
	f.state.Reset()
	f.relLen = 0
	clear(f.links)
	f.links = f.links[:0]
}

func (f *fragment) data() DataID    { return f.acc.spec.Data }
func (f *fragment) key() shardKey   { return f.acc.key }
func (f *fragment) typ() AccessType { return f.acc.spec.Type }
func (f *fragment) weak() bool      { return f.acc.spec.Weak }
func (f *fragment) node() *Node     { return f.acc.node }

// fragList is a pooled holder of a domain cell's reader or reduction-group
// history. Cells used to carry bare slices, which interval-map splits
// cloned and linkCell appends grew — one heap allocation per split and per
// growth, and the dominant remaining allocation in deep-nesting weakwait
// cascades once the other lifecycle objects pool. Lists obey a
// nil-on-empty invariant: the moment a cell's history empties (a scrub
// removed the last fragment, or a writer dissolved the history) the list
// is returned to its pool and the cell's field set to nil, so cells
// dropped by merges never strand a list and the engine's leak accounting
// stays exact.
type fragList struct {
	s []*fragment
}

// frags returns the fragments of a possibly-nil list.
func (l *fragList) frags() []*fragment {
	if l == nil {
		return nil
	}
	return l.s
}

// empty reports whether the list holds no fragments.
func (l *fragList) empty() bool { return l == nil || len(l.s) == 0 }

// resetForPool clears the list for reuse, keeping its capacity.
func (l *fragList) resetForPool() {
	clear(l.s)
	l.s = l.s[:0]
}

// cellState is the per-interval state of a dependency domain: the access
// history needed to link new sibling accesses, the live-registration count
// used to detect drain, and the hand-over target for fine-grained release.
// It is split by value copy; only the reader/reduction lists need cloning
// (through the engine's pools in the pooled memory mode).
type cellState struct {
	// written is true once any writer (or reduction) has registered over
	// the cell, even if it has since released. A cell that was never
	// written links new accesses inbound through the domain owner's own
	// access (§VI).
	written    bool
	lastWriter *fragment
	// readers is the cell's live reader history (nil when empty).
	readers *fragList
	// reds is the current reduction group: reduction accesses since the
	// last reader/writer event (nil when empty). Members carry no mutual
	// ordering; a subsequent reader or writer orders after all of them,
	// and a writer dissolves the group.
	reds *fragList
	// liveCount is the number of unreleased fragment pieces registered over
	// this cell. When it reaches zero and a hand-over is pending, the
	// domain owner's corresponding access piece releases (§V).
	liveCount int32
	// handover, when set, is the domain owner's fragment whose piece over
	// this cell is waiting for the cell to drain.
	handover *fragment
}

// cloneCell is the reference-mode cell clone: history lists are duplicated
// with plain allocations (pooled engines use enginePools.cloneCellFn).
func cloneCell(c cellState) cellState {
	c.readers = cloneListRef(c.readers)
	c.reds = cloneListRef(c.reds)
	return c
}

func cloneListRef(l *fragList) *fragList {
	if l.empty() {
		return nil
	}
	return &fragList{s: slices.Clone(l.s)}
}

// removeFrag deletes f from s in place (a fragment registers at most once
// per cell, so at most one occurrence exists).
func removeFrag(s []*fragment, f *fragment) []*fragment {
	for i, x := range s {
		if x == f {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			return s[:last]
		}
	}
	return s
}
