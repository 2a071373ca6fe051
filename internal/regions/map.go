package regions

import (
	"fmt"
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
// Map is not safe for concurrent use; the dependency engine serializes all
// accesses under its own lock.
type Map[V any] struct {
	entries []entry[V]
	clone   func(V) V
	// gaps is Materialize's reusable gap-collection scratch: pooled maps
	// cycle through many materializations, and the scratch (plain
	// intervals, no pointers) keeps its capacity across Reset.
	gaps []Interval
}

type entry[V any] struct {
	iv Interval
	v  V
}

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

// Reset empties the map while keeping the entries slice's capacity, so a
// pooled map's next life pays no allocation until it outgrows its previous
// one. Entries are zeroed first: pooled values may hold pointers (fragment
// boxes, reader lists) that must not stay reachable from the free list.
func (m *Map[V]) Reset() {
	clear(m.entries)
	m.entries = m.entries[:0]
}

// Count returns the number of entries.
func (m *Map[V]) Count() int { return len(m.entries) }

// Empty reports whether the map has no entries.
func (m *Map[V]) Empty() bool { return len(m.entries) == 0 }

// CoveredLen returns the total number of elements covered by entries.
func (m *Map[V]) CoveredLen() int64 {
	var n int64
	for _, e := range m.entries {
		n += e.iv.Len()
	}
	return n
}

// firstOverlapping returns the index of the first entry with Hi > lo
// (len(entries) if none). Entries are disjoint and sorted, so Hi is
// ascending; the binary search is written out because every map operation
// starts here and sort.Search's predicate closure does not inline.
func (m *Map[V]) firstOverlapping(lo int64) int {
	i, j := 0, len(m.entries)
	for i < j {
		h := int(uint(i+j) >> 1)
		if m.entries[h].iv.Hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// splitAt ensures no entry straddles point p: the entry containing p in its
// interior is split into [lo,p) and [p,hi).
func (m *Map[V]) splitAt(p int64) {
	i := m.firstOverlapping(p)
	if i >= len(m.entries) {
		return
	}
	e := &m.entries[i]
	if !e.iv.Contains(p) || e.iv.Lo == p {
		return
	}
	upper := entry[V]{iv: Interval{Lo: p, Hi: e.iv.Hi}, v: m.dup(e.v)}
	e.iv.Hi = p
	m.entries = append(m.entries, entry[V]{})
	copy(m.entries[i+2:], m.entries[i+1:])
	m.entries[i+1] = upper
}

// VisitRange visits every entry overlapping iv in ascending order, after
// splitting boundary entries so that each visited entry lies fully inside
// iv. Gaps are skipped. f receives the entry interval and a pointer to its
// value; the value may be mutated in place. f must not mutate the map.
func (m *Map[V]) VisitRange(iv Interval, f func(Interval, *V)) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	for i := m.firstOverlapping(iv.Lo); i < len(m.entries); i++ {
		e := &m.entries[i]
		if e.iv.Lo >= iv.Hi {
			break
		}
		f(e.iv, &e.v)
	}
}

// VisitRangeGaps is like VisitRange but also reports the gaps (sub-intervals
// of iv not covered by any entry) through gap. Entries and gaps are reported
// in ascending order, interleaved.
func (m *Map[V]) VisitRangeGaps(iv Interval, f func(Interval, *V), gap func(Interval)) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	pos := iv.Lo
	for i := m.firstOverlapping(iv.Lo); i < len(m.entries); i++ {
		// Reload the entry pointer on every iteration: f may not mutate the
		// map, but gap callbacks often insert entries via a second pass, so
		// we keep the loop simple and index-based.
		e := &m.entries[i]
		if e.iv.Lo >= iv.Hi {
			break
		}
		if e.iv.Lo > pos && gap != nil {
			gap(Interval{Lo: pos, Hi: e.iv.Lo})
		}
		if f != nil {
			f(e.iv, &e.v)
		}
		pos = e.iv.Hi
	}
	if pos < iv.Hi && gap != nil {
		gap(Interval{Lo: pos, Hi: iv.Hi})
	}
}

// Materialize ensures iv is fully covered by entries, creating entries with
// value init() for every gap, then visits every entry inside iv in order.
func (m *Map[V]) Materialize(iv Interval, init func(Interval) V, f func(Interval, *V)) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	// Collect gaps first (cannot insert while iterating).
	m.gaps = m.gaps[:0]
	m.VisitRangeGaps(iv, nil, func(g Interval) { m.gaps = append(m.gaps, g) })
	for _, g := range m.gaps {
		m.insert(g, init(g))
	}
	if f != nil {
		m.VisitRange(iv, f)
	}
}

// insert adds a new entry; the interval must not overlap any existing entry.
func (m *Map[V]) insert(iv Interval, v V) {
	i := m.firstOverlapping(iv.Lo)
	m.entries = append(m.entries, entry[V]{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = entry[V]{iv: iv, v: v}
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

// Remove deletes all entries (or entry parts) inside iv.
func (m *Map[V]) Remove(iv Interval) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	first := m.firstOverlapping(iv.Lo)
	last := first
	for last < len(m.entries) && m.entries[last].iv.Lo < iv.Hi {
		last++
	}
	m.entries = append(m.entries[:first], m.entries[last:]...)
}

// MergeRange coalesces runs of adjacent entries that touch (no gap between
// them) and whose values eq reports equal. The scan covers every entry
// overlapping iv plus one neighbor on each side, so a caller that just
// normalized values over iv also merges with bordering entries.
//
// MergeRange keeps fragmenting maps compact: long-lived maps whose entries
// converge to equal values after piece-wise updates (drained dependency
// domains, fully released fragments) would otherwise accumulate one entry
// per historical split and make every later split pay a linear shift.
func (m *Map[V]) MergeRange(iv Interval, eq func(a, b V) bool) {
	if iv.Empty() || len(m.entries) < 2 {
		return
	}
	first := m.firstOverlapping(iv.Lo)
	if first > 0 {
		first--
	}
	last := first
	for last < len(m.entries) && m.entries[last].iv.Lo < iv.Hi {
		last++
	}
	if last < len(m.entries) {
		last++ // right neighbor
	}
	if last-first < 2 {
		return
	}
	w := first
	for r := first + 1; r < last; r++ {
		e := &m.entries[w]
		n := m.entries[r]
		if e.iv.Hi == n.iv.Lo && eq(e.v, n.v) {
			e.iv.Hi = n.iv.Hi
			continue
		}
		w++
		m.entries[w] = n
	}
	if removed := last - 1 - w; removed > 0 {
		m.entries = append(m.entries[:w+1], m.entries[last:]...)
	}
}

// Get returns the value pointer for the entry containing point p, or nil.
func (m *Map[V]) Get(p int64) *V {
	i := m.firstOverlapping(p)
	if i < len(m.entries) && m.entries[i].iv.Contains(p) {
		return &m.entries[i].v
	}
	return nil
}

// Visit calls f for every entry in ascending order.
func (m *Map[V]) Visit(f func(Interval, *V)) {
	for i := range m.entries {
		f(m.entries[i].iv, &m.entries[i].v)
	}
}

// Covered reports whether iv is fully covered by entries.
func (m *Map[V]) Covered(iv Interval) bool {
	covered := true
	m.VisitRangeGaps(iv, nil, func(Interval) { covered = false })
	return covered
}

// Validate checks the map invariants (sorted, disjoint, non-empty) and
// returns an error describing the first violation.
func (m *Map[V]) Validate() error {
	for i, e := range m.entries {
		if e.iv.Empty() {
			return fmt.Errorf("regions: map entry %d empty: %v", i, e.iv)
		}
		if i > 0 && m.entries[i-1].iv.Hi > e.iv.Lo {
			return fmt.Errorf("regions: map entries %d,%d overlap: %v %v", i-1, i, m.entries[i-1].iv, e.iv)
		}
	}
	return nil
}

// String renders the map for debugging.
func (m *Map[V]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range m.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", e.iv, e.v)
	}
	b.WriteByte('}')
	return b.String()
}
