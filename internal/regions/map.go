package regions

import (
	"fmt"
	"slices"
	"strings"
)

// Map is a fragmenting interval map: a sorted sequence of disjoint,
// non-empty intervals, each carrying a value of type V.
//
// Map is the mechanism behind the paper's partially-overlapping array
// sections (§VII): whenever an operation addresses an interval whose
// boundaries fall inside an existing entry, the entry is split and its value
// duplicated with the clone function, so per-interval state (dependency
// counters, flags, reader lists) follows fragmentation with no external
// fix-ups.
//
// Layout: a chunked sorted array. While the map fits one block it is a
// single growing slice (one) — no index is allocated and a lookup is one
// binary search, which is all a leaf task's fragment or a fresh domain ever
// needs. When that slice reaches blockCap entries it becomes the first of
// several blocks of at most blockCap entries each, found through a one-level
// index of every block's last Hi. A structural edit (split, insert, remove,
// merge) then shifts entries of the blocks it touches only, so its cost is
// bounded by the block size plus — when a block is created or dropped — the
// index length (entries/blockCap), never by the entry count. A full block
// splits in half (or, when the insertion point is its end, leaves a fresh
// block behind it); an emptied block is dropped and kept for reuse. Blocks
// are never re-balanced: a map thinned by removals keeps its sparse blocks
// until they empty, which bounds the index by the peak entry count.
//
// Map is not safe for concurrent use; the dependency engine serializes all
// accesses under its own lock.
type Map[V any] struct {
	// one holds every entry while the map is a single block (ix is nil or
	// holds no blocks); nil while the map is chunked.
	one   []entry[V]
	ix    *index[V]
	clone func(V) V
	// shifted counts entries moved by structural edits: test instrumentation
	// (see Shifted), one add per edit, read by nothing in production.
	shifted int64
}

type entry[V any] struct {
	iv Interval
	v  V
}

// index is the chunked form of a map that outgrew one block. It is allocated
// at the first block split and kept (emptied) across Reset, so a pooled map's
// next life reuses its blocks.
type index[V any] struct {
	// blocks are the live blocks in ascending order, each non-empty; the
	// map is chunked exactly while there are at least two.
	blocks [][]entry[V]
	// his[b] is the Hi of blocks[b]'s last entry: the search key.
	his []int64
	// spare holds emptied blocks (zeroed, length 0) for reuse.
	spare [][]entry[V]
	// n is the total entry count over blocks.
	n int
}

// blockCap is the block size. Fixed in production; the package's tests
// shrink it to force small universes across many blocks.
var blockCap = 64

// NewMap returns an empty map. clone duplicates a value when an entry is
// split; nil means plain value copy (correct for value types without
// reference fields).
func NewMap[V any](clone func(V) V) *Map[V] {
	return &Map[V]{clone: clone}
}

func (m *Map[V]) dup(v V) V {
	if m.clone == nil {
		return v
	}
	return m.clone(v)
}

// chunked returns the index while the map spans several blocks, else nil.
func (m *Map[V]) chunked() *index[V] {
	if ix := m.ix; ix != nil && len(ix.blocks) > 0 {
		return ix
	}
	return nil
}

// nblk returns the number of blocks; a single-block map is its own block 0.
func (m *Map[V]) nblk() int {
	if ix := m.chunked(); ix != nil {
		return len(ix.blocks)
	}
	return 1
}

// blk returns block b, or nil when b is out of range — which a cursor can be
// after a callback Reset the map under it (see VisitRange).
func (m *Map[V]) blk(b int) []entry[V] {
	if ix := m.chunked(); ix != nil {
		if b < len(ix.blocks) {
			return ix.blocks[b]
		}
		return nil
	}
	if b == 0 {
		return m.one
	}
	return nil
}

// setBlk stores block b's new slice header after a length change and
// refreshes its search key.
func (m *Map[V]) setBlk(b int, s []entry[V]) {
	if ix := m.chunked(); ix != nil {
		ix.blocks[b] = s
		if len(s) > 0 {
			ix.his[b] = s[len(s)-1].iv.Hi
		}
		return
	}
	m.one = s
}

// fixHi refreshes block b's search key after an edit that may have changed
// its last entry's Hi.
func (m *Map[V]) fixHi(b int) {
	if ix := m.chunked(); ix != nil {
		s := ix.blocks[b]
		ix.his[b] = s[len(s)-1].iv.Hi
	}
}

// Reset empties the map while keeping its storage — the single slice's
// capacity, or every block of a chunked map plus the index — so a pooled
// map's next life pays no allocation until it outgrows its previous one.
// Entries are zeroed first: pooled values may hold pointers (fragment boxes,
// reader lists) that must not stay reachable from the free list.
func (m *Map[V]) Reset() {
	if ix := m.chunked(); ix != nil {
		ix.drop(0, len(ix.blocks))
		m.settle()
		return
	}
	clear(m.one)
	m.one = m.one[:0]
}

// Count returns the number of entries.
func (m *Map[V]) Count() int {
	if ix := m.chunked(); ix != nil {
		return ix.n
	}
	return len(m.one)
}

// Empty reports whether the map has no entries.
func (m *Map[V]) Empty() bool { return m.Count() == 0 }

// Shifted returns how many entries structural edits have moved inside their
// blocks (or between two halves of a splitting block) over the map's whole
// life, Reset included: the work a flat sorted array would do per edit in
// proportion to its length.
//
// Shifted is test instrumentation that lives in production code: no
// production caller reads it. It is exported only because the test that
// needs it, the dependency engine's cascade scaling test, sits in another
// package and asserts that a wide release cascade keeps its edits local.
func (m *Map[V]) Shifted() int64 { return m.shifted }

// CoveredLen returns the total number of elements covered by entries.
func (m *Map[V]) CoveredLen() int64 {
	var n int64
	m.Visit(func(iv Interval, _ *V) { n += iv.Len() })
	return n
}

// firstOverlapping returns the index of the first entry of s with Hi > lo
// (len(s) if none). Entries are disjoint and sorted, so Hi is ascending; the
// binary search is written out because every map operation starts here and
// sort.Search's predicate closure does not inline.
func firstOverlapping[V any](s []entry[V], lo int64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].iv.Hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// find returns the position (block, index) of the first entry with Hi > lo,
// or the end position — one past the last entry of the last block — when
// there is none. A single-block map pays one binary search; a chunked one
// searches the index for the first block whose last Hi exceeds lo, then that
// block.
func (m *Map[V]) find(lo int64) (b, i int) {
	ix := m.chunked()
	if ix == nil {
		return 0, firstOverlapping(m.one, lo)
	}
	his := ix.his
	lb, hb := 0, len(his)
	for lb < hb {
		h := int(uint(lb+hb) >> 1)
		if his[h] > lo {
			hb = h
		} else {
			lb = h + 1
		}
	}
	if lb == len(his) {
		lb--
		return lb, len(ix.blocks[lb])
	}
	return lb, firstOverlapping(ix.blocks[lb], lo)
}

// insertAt places e at position (b, i), shifting the rest of the block, and
// returns where it landed: a full block splits first, which can move the
// position into the new upper block.
func (m *Map[V]) insertAt(b, i int, e entry[V]) (int, int) {
	s := m.blk(b)
	if len(s) >= blockCap {
		b, i = m.splitBlock(b, i)
		s = m.blk(b)
	}
	s = append(s, entry[V]{})
	m.shifted += int64(copy(s[i+1:], s[i:]))
	s[i] = e
	m.setBlk(b, s)
	if ix := m.chunked(); ix != nil {
		ix.n++
	}
	return b, i
}

// splitBlock makes room in full block b for an insertion at index i and
// returns the insertion position afterwards. Inserting at the block's end
// starts a fresh block behind it (ascending fills leave full blocks, not
// half-empty ones); anywhere else the block's upper half moves out.
func (m *Map[V]) splitBlock(b, i int) (int, int) {
	ix := m.ix
	if ix == nil {
		ix = &index[V]{}
		m.ix = ix
	}
	if len(ix.blocks) == 0 {
		ix.blocks = append(ix.blocks, m.one)
		ix.his = append(ix.his, m.one[len(m.one)-1].iv.Hi)
		ix.n = len(m.one)
		m.one = nil
	}
	s := ix.blocks[b]
	up := ix.takeSpare()
	if up == nil {
		up = make([]entry[V], 0, blockCap)
	}
	h := len(s)
	if i < h {
		h /= 2
		up = append(up, s[h:]...)
		clear(s[h:])
		m.shifted += int64(len(up))
	}
	ix.blocks[b] = s[:h]
	ix.blocks = slices.Insert(ix.blocks, b+1, up)
	ix.his = slices.Insert(ix.his, b+1, ix.his[b])
	ix.his[b] = s[h-1].iv.Hi
	if i > h || len(up) == 0 {
		return b + 1, i - h
	}
	return b, i
}

func (ix *index[V]) takeSpare() []entry[V] {
	n := len(ix.spare)
	if n == 0 {
		return nil
	}
	s := ix.spare[n-1]
	ix.spare[n-1] = nil
	ix.spare = ix.spare[:n-1]
	return s
}

// drop removes blocks [lo, hi) from the index, zeroing them into the spare
// list.
func (ix *index[V]) drop(lo, hi int) {
	for _, s := range ix.blocks[lo:hi] {
		ix.n -= len(s)
		clear(s)
		ix.spare = append(ix.spare, s[:0])
	}
	ix.blocks = slices.Delete(ix.blocks, lo, hi)
	ix.his = slices.Delete(ix.his, lo, hi)
}

// settle returns a chunked map that a drop left with one block, or none, to
// the single-slice form.
func (m *Map[V]) settle() {
	ix := m.ix
	switch len(ix.blocks) {
	case 0:
		m.one = ix.takeSpare()
	case 1:
		m.one = ix.blocks[0]
		ix.blocks[0] = nil
		ix.blocks, ix.his, ix.n = ix.blocks[:0], ix.his[:0], 0
	}
}

// splitEntry splits the entry at (b, i) at point p strictly inside it and
// returns the position of the lower part; the upper part directly follows.
func (m *Map[V]) splitEntry(b, i int, p int64) (int, int) {
	s := m.blk(b)
	e := &s[i]
	up := entry[V]{iv: Interval{Lo: p, Hi: e.iv.Hi}, v: m.dup(e.v)}
	e.iv.Hi = p
	m.fixHi(b) // e may be the block's last entry
	b, i = m.insertAt(b, i+1, up)
	if i > 0 {
		return b, i - 1
	}
	return b - 1, len(m.blk(b-1)) - 1
}

// VisitRange visits every entry overlapping iv in ascending order, after
// splitting boundary entries so that each visited entry lies fully inside
// iv. Gaps are skipped. f receives the entry interval and a pointer to its
// value; the value may be mutated in place.
//
// f must not mutate the map, with one exception that the dependency engine
// relies on: f may Reset the map (releasing the last piece of a fragment can
// recycle the fragment whose state map is being visited). The visit then
// ends cleanly without touching another entry; the value pointer passed to
// f is dead once it did so.
func (m *Map[V]) VisitRange(iv Interval, f func(Interval, *V)) {
	m.visit(iv, nil, f, nil)
}

// VisitRangeGaps is like VisitRange but also reports the gaps (sub-intervals
// of iv not covered by any entry) through gap. Entries and gaps are reported
// in ascending order, interleaved. gap must not mutate the map.
func (m *Map[V]) VisitRangeGaps(iv Interval, f func(Interval, *V), gap func(Interval)) {
	m.visit(iv, nil, f, gap)
}

// Materialize ensures iv is fully covered by entries, creating an entry with
// value init(g) for every gap g, and visits every entry inside iv in
// ascending order (f may be nil), a created entry right after its creation.
// f obeys the VisitRange contract.
func (m *Map[V]) Materialize(iv Interval, init func(Interval) V, f func(Interval, *V)) {
	m.visit(iv, init, f, nil)
}

// visit is the single descent behind the three splitting visits: locate
// iv.Lo once, split the entry straddling it, walk to iv.Hi — filling (init)
// or reporting (gap) the gaps on the way — and split the entry straddling
// iv.Hi when the walk reaches it. The cursor re-reads its block on every
// step, so it survives the block splits its own insertions cause and a Reset
// from f.
func (m *Map[V]) visit(iv Interval, init func(Interval) V, f func(Interval, *V), gap func(Interval)) {
	if iv.Empty() {
		return
	}
	b, i := m.find(iv.Lo)
	if s := m.blk(b); i < len(s) && s[i].iv.Lo < iv.Lo {
		b, i = m.splitEntry(b, i, iv.Lo)
		i++
	}
	pos := iv.Lo
	for pos < iv.Hi {
		s := m.blk(b)
		if i >= len(s) && b+1 < m.nblk() {
			b, i = b+1, 0
			continue
		}
		// next is where the entry at the cursor starts, or iv.Hi when the
		// walk ran out of entries inside iv.
		next := iv.Hi
		if i < len(s) && s[i].iv.Lo < iv.Hi {
			next = s[i].iv.Lo
		}
		if next > pos {
			g := Interval{Lo: pos, Hi: next}
			pos = next
			if gap != nil {
				gap(g)
			}
			if init == nil {
				continue
			}
			b, i = m.insertAt(b, i, entry[V]{iv: g, v: init(g)})
			s = m.blk(b)
		} else if s[i].iv.Hi > iv.Hi {
			b, i = m.splitEntry(b, i, iv.Hi)
			s = m.blk(b)
		}
		e := &s[i]
		pos = e.iv.Hi
		i++
		if f != nil {
			f(e.iv, &e.v)
			if m.Count() == 0 {
				return // f Reset the map
			}
		}
	}
}

// PeekRange visits every entry overlapping iv in ascending order without
// splitting anything: f receives the overlap of the entry with iv and a
// pointer to the value of the whole entry, which may reach beyond iv on
// either side — a caller that writes through it writes the whole entry.
// This is the walk for deciding whether a splitting visit is needed at all,
// so f returns whether to go on: false ends the walk. f must not mutate the
// map.
func (m *Map[V]) PeekRange(iv Interval, f func(Interval, *V) bool) {
	if iv.Empty() {
		return
	}
	b, i := m.find(iv.Lo)
	for n := m.nblk(); b < n; b, i = b+1, 0 {
		s := m.blk(b)
		for ; i < len(s); i++ {
			e := &s[i]
			if e.iv.Lo >= iv.Hi || !f(e.iv.Intersect(iv), &e.v) {
				return
			}
		}
	}
}

// insert adds a new entry; the interval must not overlap any existing entry.
func (m *Map[V]) insert(iv Interval, v V) {
	b, i := m.find(iv.Lo)
	m.insertAt(b, i, entry[V]{iv: iv, v: v})
}

// Set assigns value v over iv, overwriting (and fragmenting) whatever was
// there before.
func (m *Map[V]) Set(iv Interval, v V) {
	if iv.Empty() {
		return
	}
	m.Remove(iv)
	m.insert(iv, v)
}

// Remove deletes all entries (or entry parts) inside iv. Boundary entries
// are trimmed in place; only an entry reaching beyond iv on both sides is
// split (its value cloned once, for the part above iv).
func (m *Map[V]) Remove(iv Interval) {
	if iv.Empty() {
		return
	}
	b, i := m.find(iv.Lo)
	s := m.blk(b)
	if i < len(s) && s[i].iv.Lo < iv.Lo {
		if s[i].iv.Hi > iv.Hi {
			b, i = m.splitEntry(b, i, iv.Hi)
			m.blk(b)[i].iv.Hi = iv.Lo
			m.fixHi(b)
			return
		}
		s[i].iv.Hi = iv.Lo
		m.fixHi(b)
		i++
	}
	// (b, i) is the first position to delete; walk to the first to keep.
	eb, ei := b, i
	for n := m.nblk(); eb < n; {
		s = m.blk(eb)
		if ei < len(s) && s[len(s)-1].iv.Hi > iv.Hi {
			// The end lies in this block.
			ei += firstOverlapping(s[ei:], iv.Hi)
			if s[ei].iv.Lo < iv.Hi {
				s[ei].iv.Lo = iv.Hi
			}
			break
		}
		if eb+1 == n {
			ei = len(s)
			break
		}
		eb, ei = eb+1, 0
	}
	m.removeSpan(b, i, eb, ei)
}

// removeSpan deletes the entries from position (b0, i0) up to, not
// including, position (b1, i1): the tail of b0, every block between, and the
// head of b1. Emptied blocks are dropped.
func (m *Map[V]) removeSpan(b0, i0, b1, i1 int) {
	if b0 == b1 {
		m.cut(b0, i0, i1)
	} else {
		m.cut(b1, 0, i1)
		m.cut(b0, i0, len(m.blk(b0)))
	}
	ix := m.chunked()
	if ix == nil {
		return
	}
	// Blocks strictly between b0 and b1 go whole; b0 and b1 go if emptied.
	lo, hi := b0+1, b1
	if len(ix.blocks[b0]) == 0 {
		lo = b0
	}
	if len(ix.blocks[b1]) == 0 {
		hi = b1 + 1
	}
	if lo < hi {
		ix.drop(lo, hi)
		m.settle()
	}
}

// cut deletes entries [i, j) of block b, shifting the block's tail down.
func (m *Map[V]) cut(b, i, j int) {
	if i == j {
		return
	}
	s := m.blk(b)
	m.shifted += int64(len(s) - j)
	s = slices.Delete(s, i, j)
	if ix := m.chunked(); ix != nil {
		ix.n -= j - i
	}
	m.setBlk(b, s)
}

// MergeRange coalesces runs of adjacent entries that touch (no gap between
// them) and whose values eq reports equal. The scan covers every entry
// overlapping iv plus one neighbor on each side, so a caller that just
// normalized values over iv also merges with bordering entries.
//
// MergeRange keeps fragmenting maps compact: long-lived maps whose entries
// converge to equal values after piece-wise updates (drained dependency
// domains, fully released fragments) would otherwise accumulate one entry
// per historical split. Each block in the scan is compacted in place, so the
// cost is the entries scanned plus the tails of the blocks they sit in.
func (m *Map[V]) MergeRange(iv Interval, eq func(a, b V) bool) {
	if iv.Empty() || m.Count() < 2 {
		return
	}
	b, i := m.find(iv.Lo)
	if i > 0 {
		i-- // left neighbor
	} else if b > 0 {
		b--
		i = len(m.blk(b)) - 1
	}
	// keep is the last entry kept so far, in block keepB; entries that merge
	// extend it and vanish.
	var keep *entry[V]
	keepB := 0
	emptyLo, emptyHi := 0, 0 // bounds of the blocks the merge emptied
	for done := false; !done && b < m.nblk(); b, i = b+1, 0 {
		s := m.blk(b)
		w, r := i, i
		for ; r < len(s) && !done; r++ {
			e := &s[r]
			done = e.iv.Lo >= iv.Hi // the right neighbor is scanned, then the scan stops
			if keep != nil && keep.iv.Hi == e.iv.Lo && eq(keep.v, e.v) {
				keep.iv.Hi = e.iv.Hi
				if keepB != b {
					m.fixHi(keepB) // keep is the last entry of an earlier block
				}
				continue
			}
			if w != r {
				s[w] = *e
			}
			keep, keepB = &s[w], b
			w++
		}
		if w == r {
			continue
		}
		m.cut(b, w, r)
		if w == 0 && r == len(s) {
			if emptyHi == 0 {
				emptyLo = b
			}
			emptyHi = b + 1
		}
	}
	if emptyHi > 0 {
		ix := m.ix // a block emptied into an earlier one: the map is chunked
		for b := emptyHi - 1; b >= emptyLo; b-- {
			if len(ix.blocks[b]) == 0 {
				ix.drop(b, b+1)
			}
		}
		m.settle()
	}
}

// Get returns the value pointer for the entry containing point p, or nil.
func (m *Map[V]) Get(p int64) *V {
	b, i := m.find(p)
	if s := m.blk(b); i < len(s) && s[i].iv.Contains(p) {
		return &s[i].v
	}
	return nil
}

// Visit calls f for every entry in ascending order. f must not mutate the
// map.
func (m *Map[V]) Visit(f func(Interval, *V)) {
	for b, n := 0, m.nblk(); b < n; b++ {
		s := m.blk(b)
		for i := range s {
			f(s[i].iv, &s[i].v)
		}
	}
}

// Covered reports whether iv is fully covered by entries.
func (m *Map[V]) Covered(iv Interval) bool {
	pos := iv.Lo
	m.PeekRange(iv, func(c Interval, _ *V) bool {
		if c.Lo != pos {
			return false // a gap
		}
		pos = c.Hi
		return true
	})
	return pos >= iv.Hi
}

// Validate checks the map invariants — entries sorted, disjoint and
// non-empty; blocks non-empty, within blockCap, and indexed by their last Hi
// — and returns an error describing the first violation.
func (m *Map[V]) Validate() error {
	if len(m.one) > blockCap {
		return fmt.Errorf("regions: single slice holds %d entries (block size %d)", len(m.one), blockCap)
	}
	if ix := m.ix; ix != nil {
		switch {
		case len(ix.blocks) == 1:
			return fmt.Errorf("regions: chunked map with a single block")
		case len(ix.blocks) > 0 && m.one != nil:
			return fmt.Errorf("regions: chunked map kept its single slice")
		case len(ix.his) != len(ix.blocks):
			return fmt.Errorf("regions: %d blocks, %d index keys", len(ix.blocks), len(ix.his))
		}
		n := 0
		for b, s := range ix.blocks {
			if len(s) == 0 || len(s) > blockCap {
				return fmt.Errorf("regions: block %d holds %d entries (block size %d)", b, len(s), blockCap)
			}
			if hi := s[len(s)-1].iv.Hi; ix.his[b] != hi {
				return fmt.Errorf("regions: block %d indexed by %d, last Hi is %d", b, ix.his[b], hi)
			}
			n += len(s)
		}
		if n != ix.n {
			return fmt.Errorf("regions: index counts %d entries, blocks hold %d", ix.n, n)
		}
	}
	var err error
	i, prevHi := 0, int64(0)
	m.Visit(func(iv Interval, _ *V) {
		switch {
		case err != nil:
		case iv.Empty():
			err = fmt.Errorf("regions: map entry %d empty: %v", i, iv)
		case i > 0 && prevHi > iv.Lo:
			err = fmt.Errorf("regions: map entries %d,%d overlap: previous ends at %d, next is %v", i-1, i, prevHi, iv)
		}
		i, prevHi = i+1, iv.Hi
	})
	return err
}

// String renders the map for debugging.
func (m *Map[V]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.Visit(func(iv Interval, v *V) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%v=%v", iv, *v)
	})
	b.WriteByte('}')
	return b.String()
}
