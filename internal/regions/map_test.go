package regions

import (
	"math/rand"
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

// Property: the map behaves like an array of optional values under
// Set/Remove/Materialize, and its invariants hold throughout.
func TestMapQuickAgainstArray(t *testing.T) {
	const universe = 128
	f := func(ops []struct {
		Kind   uint8
		Lo, Hi uint8
		V      int8
	}) bool {
		m := NewMap[int](nil)
		ref := make([]*int, universe)
		for _, op := range ops {
			lo, hi := int64(op.Lo)%universe, int64(op.Hi)%universe
			if lo > hi {
				lo, hi = hi, lo
			}
			iv := Iv(lo, hi)
			v := int(op.V)
			switch op.Kind % 3 {
			case 0:
				m.Set(iv, v)
				for p := lo; p < hi; p++ {
					x := v
					ref[p] = &x
				}
			case 1:
				m.Remove(iv)
				for p := lo; p < hi; p++ {
					ref[p] = nil
				}
			case 2:
				m.Materialize(iv, func(Interval) int { return v }, nil)
				for p := lo; p < hi; p++ {
					if ref[p] == nil {
						x := v
						ref[p] = &x
					}
				}
			}
			if err := m.Validate(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for p := int64(0); p < universe; p++ {
			got := m.Get(p)
			want := ref[p]
			if (got == nil) != (want == nil) {
				t.Logf("presence mismatch at %d: got %v want %v", p, got, want)
				return false
			}
			if got != nil && *got != *want {
				t.Logf("value mismatch at %d: got %d want %d", p, *got, *want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
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

// Property: the hand-rolled binary search in firstOverlapping agrees with
// sort.Search over the same predicate, on random maps (empty, fragmented,
// with gaps) and every probe point from below the first entry to past the
// last.
func TestMapQuickFirstOverlappingMatchesSortSearch(t *testing.T) {
	const universe = 96
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap[int](nil)
		for n := rng.Intn(24); n > 0; n-- {
			lo := rng.Int63n(universe)
			iv := Iv(lo, lo+1+rng.Int63n(8))
			if rng.Intn(4) == 0 {
				m.Remove(iv)
			} else {
				m.Set(iv, n)
			}
		}
		for lo := int64(-2); lo < universe+10; lo++ {
			want := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].iv.Hi > lo })
			if got := m.firstOverlapping(lo); got != want {
				t.Logf("seed %d: firstOverlapping(%d) = %d, sort.Search = %d over %v", seed, lo, got, want, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
