package regions

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMapSetGet(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(0, 10), 1)
	m.Set(Iv(20, 30), 2)
	if v := m.Get(5); v == nil || *v != 1 {
		t.Fatalf("Get(5) = %v", v)
	}
	if v := m.Get(15); v != nil {
		t.Fatalf("Get(15) should be nil, got %v", *v)
	}
	if v := m.Get(29); v == nil || *v != 2 {
		t.Fatalf("Get(29) = %v", v)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapSetOverwriteFragments(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(0, 10), 1)
	m.Set(Iv(3, 7), 2)
	// Expect [0,3)=1 [3,7)=2 [7,10)=1
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3: %v", m.Count(), m)
	}
	for p, want := range map[int64]int{0: 1, 3: 2, 6: 2, 7: 1, 9: 1} {
		if v := m.Get(p); v == nil || *v != want {
			t.Fatalf("Get(%d) = %v, want %d", p, v, want)
		}
	}
}

func TestMapVisitRangeSplitsBoundaries(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(0, 100), 7)
	var seen []Interval
	m.VisitRange(Iv(30, 60), func(iv Interval, v *int) {
		seen = append(seen, iv)
		*v = 8
	})
	if len(seen) != 1 || !seen[0].Equal(Iv(30, 60)) {
		t.Fatalf("visited %v", seen)
	}
	// The mutation must be confined to [30,60).
	for p, want := range map[int64]int{0: 7, 29: 7, 30: 8, 59: 8, 60: 7, 99: 7} {
		if v := m.Get(p); v == nil || *v != want {
			t.Fatalf("Get(%d) = %v, want %d", p, v, want)
		}
	}
	if m.Count() != 3 {
		t.Fatalf("expected 3 fragments, got %d", m.Count())
	}
}

func TestMapVisitRangeGaps(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(10, 20), 1)
	m.Set(Iv(30, 40), 2)
	var ivs, gaps []Interval
	m.VisitRangeGaps(Iv(0, 50), func(iv Interval, _ *int) { ivs = append(ivs, iv) },
		func(g Interval) { gaps = append(gaps, g) })
	if len(ivs) != 2 {
		t.Fatalf("entries %v", ivs)
	}
	wantGaps := []Interval{Iv(0, 10), Iv(20, 30), Iv(40, 50)}
	if len(gaps) != len(wantGaps) {
		t.Fatalf("gaps %v, want %v", gaps, wantGaps)
	}
	for i := range wantGaps {
		if !gaps[i].Equal(wantGaps[i]) {
			t.Fatalf("gaps %v, want %v", gaps, wantGaps)
		}
	}
}

func TestMapMaterialize(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(10, 20), 5)
	var visited []Interval
	m.Materialize(Iv(5, 25), func(Interval) int { return -1 }, func(iv Interval, v *int) {
		visited = append(visited, iv)
	})
	if !m.Covered(Iv(5, 25)) {
		t.Fatal("range should be fully covered after Materialize")
	}
	if len(visited) != 3 {
		t.Fatalf("visited %v", visited)
	}
	if v := m.Get(7); v == nil || *v != -1 {
		t.Fatalf("gap value = %v, want -1", v)
	}
	if v := m.Get(15); v == nil || *v != 5 {
		t.Fatalf("existing value clobbered: %v", v)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapRemove(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(0, 30), 1)
	m.Remove(Iv(10, 20))
	if m.Covered(Iv(0, 30)) {
		t.Fatal("middle should be removed")
	}
	if !m.Covered(Iv(0, 10)) || !m.Covered(Iv(20, 30)) {
		t.Fatal("ends should remain")
	}
	if m.CoveredLen() != 20 {
		t.Fatalf("CoveredLen = %d", m.CoveredLen())
	}
}

func TestMapCloneOnSplit(t *testing.T) {
	type val struct{ xs []int }
	m := NewMap[val](func(v val) val {
		c := make([]int, len(v.xs))
		copy(c, v.xs)
		return val{xs: c}
	})
	m.Set(Iv(0, 10), val{xs: []int{1}})
	m.VisitRange(Iv(5, 10), func(_ Interval, v *val) {
		v.xs = append(v.xs, 2)
	})
	left := m.Get(0)
	right := m.Get(5)
	if len(left.xs) != 1 || len(right.xs) != 2 {
		t.Fatalf("clone-on-split failed: left=%v right=%v", left.xs, right.xs)
	}
	// Mutating one side must not alias the other.
	right.xs[0] = 99
	if left.xs[0] == 99 {
		t.Fatal("slices alias across split")
	}
}

func TestMapVisitRangeEmptyInterval(t *testing.T) {
	m := NewMap[int](nil)
	m.Set(Iv(0, 10), 1)
	called := false
	m.VisitRange(Iv(5, 5), func(Interval, *int) { called = true })
	if called {
		t.Fatal("empty range should visit nothing")
	}
	if m.Count() != 1 {
		t.Fatal("empty range should not fragment the map")
	}
}

// Property: VisitRange visits exactly the covered sub-intervals of the query
// and its mutations are confined to the query range.
func TestMapQuickVisitConfinement(t *testing.T) {
	const universe = 100
	f := func(setups []struct{ Lo, Hi uint8 }, qLo, qHi uint8) bool {
		m := NewMap[int](nil)
		ref := make([]*int, universe)
		for _, s := range setups {
			lo, hi := int64(s.Lo)%universe, int64(s.Hi)%universe
			if lo > hi {
				lo, hi = hi, lo
			}
			m.Set(Iv(lo, hi), 0)
			for p := lo; p < hi; p++ {
				z := 0
				ref[p] = &z
			}
		}
		lo, hi := int64(qLo)%universe, int64(qHi)%universe
		if lo > hi {
			lo, hi = hi, lo
		}
		m.VisitRange(Iv(lo, hi), func(iv Interval, v *int) {
			if iv.Lo < lo || iv.Hi > hi {
				t.Logf("visited %v outside query [%d,%d)", iv, lo, hi)
			}
			*v = 1
		})
		for p := int64(0); p < universe; p++ {
			got := m.Get(p)
			if (got == nil) != (ref[p] == nil) {
				return false
			}
			if got == nil {
				continue
			}
			inQuery := p >= lo && p < hi
			if inQuery && *got != 1 {
				return false
			}
			if !inQuery && *got != 0 {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// flatMap is the interval map this package shipped before Map became a
// chunked array: one sorted slice, every edit shifting everything behind it.
// It stays here as the model the chunked Map is checked against — same
// operations, same splitting and merging rules, so after any operation
// sequence the two must hold identical entry sequences.
type flatMap[V any] struct {
	entries []entry[V]
}

func (m *flatMap[V]) splitAt(p int64) {
	i := firstOverlapping(m.entries, p)
	if i >= len(m.entries) {
		return
	}
	e := &m.entries[i]
	if !e.iv.Contains(p) || e.iv.Lo == p {
		return
	}
	upper := entry[V]{iv: Interval{Lo: p, Hi: e.iv.Hi}, v: e.v}
	e.iv.Hi = p
	m.entries = slices.Insert(m.entries, i+1, upper)
}

func (m *flatMap[V]) VisitRangeGaps(iv Interval, f func(Interval, *V), gap func(Interval)) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	pos := iv.Lo
	for i := firstOverlapping(m.entries, iv.Lo); i < len(m.entries); i++ {
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

func (m *flatMap[V]) VisitRange(iv Interval, f func(Interval, *V)) {
	m.VisitRangeGaps(iv, f, nil)
}

func (m *flatMap[V]) Materialize(iv Interval, init func(Interval) V, f func(Interval, *V)) {
	var gaps []Interval
	m.VisitRangeGaps(iv, nil, func(g Interval) { gaps = append(gaps, g) })
	for _, g := range gaps {
		m.insert(g, init(g))
	}
	if f != nil {
		m.VisitRange(iv, f)
	}
}

func (m *flatMap[V]) insert(iv Interval, v V) {
	i := firstOverlapping(m.entries, iv.Lo)
	m.entries = slices.Insert(m.entries, i, entry[V]{iv: iv, v: v})
}

func (m *flatMap[V]) Set(iv Interval, v V) {
	if iv.Empty() {
		return
	}
	m.Remove(iv)
	m.insert(iv, v)
}

func (m *flatMap[V]) Remove(iv Interval) {
	if iv.Empty() {
		return
	}
	m.splitAt(iv.Lo)
	m.splitAt(iv.Hi)
	first := firstOverlapping(m.entries, iv.Lo)
	last := first
	for last < len(m.entries) && m.entries[last].iv.Lo < iv.Hi {
		last++
	}
	m.entries = slices.Delete(m.entries, first, last)
}

func (m *flatMap[V]) MergeRange(iv Interval, eq func(a, b V) bool) {
	if iv.Empty() || len(m.entries) < 2 {
		return
	}
	first := max(firstOverlapping(m.entries, iv.Lo)-1, 0)
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
	m.entries = slices.Delete(m.entries, w+1, last)
}

// setBlockCap forces the block size for one test.
func setBlockCap(t *testing.T, n int) {
	old := blockCap
	blockCap = n
	t.Cleanup(func() { blockCap = old })
}

// eachBlockCap runs f with the block size forced to 4 — so universes of a
// hundred points cross dozens of blocks — and at the production value.
func eachBlockCap(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{4, blockCap} {
		t.Run(fmt.Sprintf("block=%d", n), func(t *testing.T) {
			setBlockCap(t, n)
			f(t)
		})
	}
}

// lockstep drives a Map and the flat model through the same operations and
// compares them after each one.
type lockstep struct {
	m         *Map[int]
	flat      flatMap[int]
	maxBlocks int
}

func newLockstep() *lockstep { return &lockstep{m: NewMap[int](nil)} }

// check fails unless the map is valid and holds exactly the model's entries.
func (l *lockstep) check() error {
	if err := l.m.Validate(); err != nil {
		return err
	}
	l.maxBlocks = max(l.maxBlocks, l.m.nblk())
	var got []entry[int]
	l.m.Visit(func(iv Interval, v *int) { got = append(got, entry[int]{iv, *v}) })
	if !slices.Equal(got, l.flat.entries) {
		return fmt.Errorf("entries diverge:\n map  %v\n flat %v", got, l.flat.entries)
	}
	if l.m.Count() != len(got) {
		return fmt.Errorf("Count() = %d, map holds %d entries", l.m.Count(), len(got))
	}
	return nil
}

func (l *lockstep) set(iv Interval, v int) { l.m.Set(iv, v); l.flat.Set(iv, v) }
func (l *lockstep) remove(iv Interval)     { l.m.Remove(iv); l.flat.Remove(iv) }
func (l *lockstep) materialize(iv Interval, v int) {
	l.m.Materialize(iv, func(Interval) int { return v }, nil)
	l.flat.Materialize(iv, func(Interval) int { return v }, nil)
}
func (l *lockstep) visit(iv Interval, f func(Interval, *int)) {
	l.m.VisitRange(iv, f)
	l.flat.VisitRange(iv, f)
}
func (l *lockstep) merge(iv Interval, eq func(a, b int) bool) {
	l.m.MergeRange(iv, eq)
	l.flat.MergeRange(iv, eq)
}

// randIv draws an interval inside [0, universe): mostly a few points long,
// so programs build up enough entries to cross several blocks, sometimes
// long, so operations also span and drop whole blocks.
func randIv(rng *rand.Rand, universe int64) Interval {
	lo := rng.Int63n(universe)
	n := 1 + rng.Int63n(4)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Int63n(universe/2)
	}
	return Iv(lo, min(lo+n, universe))
}

// universeFor sizes a test universe so that short intervals can fill at
// least four blocks of the current size.
func universeFor() int64 { return int64(blockCap) * 16 }

// Property: the map behaves like an array of optional values under
// Set/Remove/Materialize, holds exactly the flat model's entries after every
// operation, and its invariants hold throughout.
func TestMapQuickAgainstArray(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		universe := universeFor()
		blocks := 0
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			l := newLockstep()
			ref := make([]*int, universe)
			for op := 0; op < int(universe); op++ {
				iv := randIv(rng, universe)
				v := rng.Intn(100)
				switch rng.Intn(4) {
				case 0, 1:
					l.set(iv, v)
					for p := iv.Lo; p < iv.Hi; p++ {
						x := v
						ref[p] = &x
					}
				case 2:
					l.remove(iv)
					for p := iv.Lo; p < iv.Hi; p++ {
						ref[p] = nil
					}
				case 3:
					l.materialize(iv, v)
					for p := iv.Lo; p < iv.Hi; p++ {
						if ref[p] == nil {
							x := v
							ref[p] = &x
						}
					}
				}
				if err := l.check(); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					return false
				}
			}
			blocks = max(blocks, l.maxBlocks)
			for p := int64(0); p < universe; p++ {
				got, want := l.m.Get(p), ref[p]
				if (got == nil) != (want == nil) {
					t.Logf("seed %d: presence mismatch at %d: got %v want %v", seed, p, got, want)
					return false
				}
				if got != nil && *got != *want {
					t.Logf("seed %d: value mismatch at %d: got %d want %d", seed, p, *got, *want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}); err != nil {
			t.Fatal(err)
		}
		if blocks < 3 {
			t.Fatalf("programs never spanned 3 blocks (max %d): the universe is too small for the block size", blocks)
		}
	})
}

// Property: the two-level search (index of last-Hi keys, then one block)
// agrees with sort.Search over the flattened entry sequence, on random maps
// (empty, one block, many blocks, with gaps) and every probe point from
// below the first entry to past the last.
func TestMapQuickFindMatchesSortSearch(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		universe := universeFor()
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := NewMap[int](nil)
			for n := rng.Int63n(universe); n > 0; n-- {
				if iv := randIv(rng, universe); rng.Intn(4) == 0 {
					m.Remove(iv)
				} else {
					m.Set(iv, int(n))
				}
			}
			var flat []Interval
			m.Visit(func(iv Interval, _ *int) { flat = append(flat, iv) })
			for lo := int64(-2); lo < universe+2; lo++ {
				want := sort.Search(len(flat), func(i int) bool { return flat[i].Hi > lo })
				b, i := m.find(lo)
				got := i
				for k := 0; k < b; k++ {
					got += len(m.blk(k))
				}
				if got != want {
					t.Logf("seed %d: find(%d) = block %d index %d = entry %d, sort.Search = %d over %v", seed, lo, b, i, got, want, m)
					return false
				}
				if b > 0 && i == len(m.blk(b)) && b+1 < m.nblk() {
					t.Logf("seed %d: find(%d) = end of inner block %d", seed, lo, b)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
			t.Fatal(err)
		}
	})
}

// PeekRange reports exactly the overlaps a splitting visit would visit,
// leaves the entry sequence alone, and stops when the callback says so.
func TestMapPeekRangeClipsWithoutSplitting(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		universe := universeFor()
		rng := rand.New(rand.NewSource(11))
		l := newLockstep()
		for op := 0; op < int(universe); op++ {
			l.set(randIv(rng, universe), op)
		}
		for q := 0; q < 200; q++ {
			iv := randIv(rng, universe)
			var got, want []entry[int]
			l.m.PeekRange(iv, func(c Interval, v *int) bool {
				got = append(got, entry[int]{c, *v})
				return true
			})
			if len(got) > 0 {
				stop, seen := rng.Intn(len(got)), 0
				l.m.PeekRange(iv, func(Interval, *int) bool {
					seen++
					return seen <= stop
				})
				if seen != stop+1 {
					t.Fatalf("PeekRange(%v) told to stop after %d entries visited %d", iv, stop+1, seen)
				}
			}
			if err := l.check(); err != nil {
				t.Fatalf("PeekRange(%v) changed the map: %v", iv, err)
			}
			l.flat.VisitRange(iv, func(c Interval, v *int) { want = append(want, entry[int]{c, *v}) })
			l.m.VisitRange(iv, func(Interval, *int) {})
			if !slices.Equal(got, want) {
				t.Fatalf("PeekRange(%v) = %v, splitting visit sees %v", iv, got, want)
			}
		}
	})
}

// The VisitRange contract lets the callback Reset the map under the visit —
// the dependency engine recycles a fragment from inside the visit of its own
// state map. The visit must end there: no further callback, no gap report,
// no entry written into the emptied map.
func TestMapVisitSurvivesResetFromCallback(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		n := int64(blockCap) * 5
		build := func() *Map[int] {
			m := NewMap[int](nil)
			for i := int64(0); i < n; i++ {
				m.Set(Iv(2*i, 2*i+1), int(i)) // gaps between entries
			}
			return m
		}
		for _, at := range []int{0, 1, blockCap - 1, blockCap, 2*blockCap + 1, int(n) - 1} {
			calls := 0
			resetAt := func(m *Map[int]) func(Interval, *int) {
				return func(Interval, *int) {
					if calls == at {
						m.Reset()
					} else if calls > at {
						t.Fatalf("callback %d ran after the Reset in callback %d", calls, at)
					}
					calls++
				}
			}
			m := build()
			m.VisitRange(Iv(0, 2*n), resetAt(m))
			if m.Count() != 0 || m.Validate() != nil {
				t.Fatalf("reset at %d: VisitRange left %d entries, %v", at, m.Count(), m.Validate())
			}
			calls, m = 0, build()
			m.VisitRangeGaps(Iv(0, 2*n), resetAt(m), func(g Interval) {
				if calls > at {
					t.Fatalf("gap %v reported after the Reset in callback %d", g, at)
				}
			})
			calls, m = 0, build()
			m.Materialize(Iv(0, 2*n), func(Interval) int { return -1 }, resetAt(m))
			if m.Count() != 0 || m.Validate() != nil {
				t.Fatalf("reset at %d: Materialize left %d entries, %v", at, m.Count(), m.Validate())
			}
			// The emptied map is fully usable, and reuses its blocks.
			m.Set(Iv(0, 10), 1)
			m.VisitRange(Iv(3, 4), func(_ Interval, v *int) { *v = 2 })
			if m.Count() != 3 || m.Validate() != nil {
				t.Fatalf("reset at %d: map unusable after Reset: %v %v", at, m, m.Validate())
			}
		}
	})
}

// Reset keeps a chunked map's blocks: refilling it to the same size
// allocates nothing.
func TestMapResetKeepsBlocks(t *testing.T) {
	m := NewMap[int](nil)
	n := int64(blockCap) * 6
	fill := func() {
		for i := int64(0); i < n; i++ {
			m.Set(Iv(i, i+1), 1)
		}
	}
	fill()
	if m.nblk() < 3 {
		t.Fatalf("fill built %d blocks", m.nblk())
	}
	m.Reset()
	if allocs := testing.AllocsPerRun(5, func() { fill(); m.Reset() }); allocs != 0 {
		t.Errorf("refilling a Reset map allocated %.0f times per cycle", allocs)
	}
}

// A map that fits one block never allocates an index.
func TestMapSmallMapHasNoIndex(t *testing.T) {
	m := NewMap[int](nil)
	for i := int64(0); i < int64(blockCap); i++ {
		m.Set(Iv(i, i+1), 1)
	}
	if m.ix != nil {
		t.Fatalf("%d entries (block size %d) allocated an index", m.Count(), blockCap)
	}
	m.Set(Iv(int64(blockCap), int64(blockCap)+1), 1)
	if m.chunked() == nil {
		t.Fatal("one entry past the block size did not chunk the map")
	}
	m.Remove(Iv(int64(blockCap), int64(blockCap)+1))
	if m.chunked() != nil || m.Count() != blockCap {
		t.Fatalf("map back to one block stayed chunked (%d entries)", m.Count())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
