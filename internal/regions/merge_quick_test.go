package regions

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Model-based property test: a Map under random Set/Remove/VisitRange/
// MergeRange/Materialize sequences must stay valid, hold exactly the flat
// model's entries after every operation, and agree point-wise with a naive
// per-element reference model. MergeRange must never change the map's
// observable contents — only its entry count.
func TestQuickMapWithMergeMatchesModel(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		universe := universeFor()
		blocks := 0
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			l := newLockstep()
			model := make([]*int, universe) // nil = uncovered
			for op := 0; op < int(universe); op++ {
				iv := randIv(rng, universe)
				switch rng.Intn(6) {
				case 0, 1: // Set
					v := rng.Intn(4)
					l.set(iv, v)
					for p := iv.Lo; p < iv.Hi; p++ {
						vv := v
						model[p] = &vv
					}
				case 2: // Remove
					l.remove(iv)
					for p := iv.Lo; p < iv.Hi; p++ {
						model[p] = nil
					}
				case 3: // VisitRange mutation: bump values in range
					l.visit(iv, func(_ Interval, v *int) { *v = (*v + 1) % 4 })
					for p := iv.Lo; p < iv.Hi; p++ {
						if model[p] != nil {
							*model[p] = (*model[p] + 1) % 4
						}
					}
				case 4: // MergeRange on equality: contents must be unchanged
					l.merge(iv, func(a, b int) bool { return a == b })
				case 5: // Materialize with default value
					l.materialize(iv, 3)
					for p := iv.Lo; p < iv.Hi; p++ {
						if model[p] == nil {
							v := 3
							model[p] = &v
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
				got, want := l.m.Get(p), model[p]
				switch {
				case got == nil && want == nil:
				case got == nil || want == nil:
					t.Logf("seed %d: point %d coverage mismatch (map %v, model %v)", seed, p, got, want)
					return false
				case *got != *want:
					t.Logf("seed %d: point %d = %d, model %d", seed, p, *got, *want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}); err != nil {
			t.Fatal(err)
		}
		if blocks < 3 {
			t.Fatalf("programs never spanned 3 blocks (max %d): the universe is too small for the block size", blocks)
		}
	})
}

// MergeRange with an always-true predicate over fully covered runs must
// produce the minimal entry count (one entry per maximal covered run), also
// when the runs span many blocks, and step by step when a release front
// sweeps the map the way a cascade does.
func TestMergeRangeMinimality(t *testing.T) {
	eachBlockCap(t, func(t *testing.T) {
		n := int64(blockCap) * 5
		always := func(a, b int) bool { return true }
		gapped := newLockstep()
		for i := int64(0); i < n; i++ {
			gapped.set(Iv(i*2, i*2+1), 1) // disjoint single-element entries w/ gaps
		}
		gapped.merge(Iv(0, 2*n), always)
		if err := gapped.check(); err != nil {
			t.Fatal(err)
		}
		if gapped.m.Count() != int(n) {
			t.Errorf("gapped entries merged: %d, want %d", gapped.m.Count(), n)
		}

		dense := newLockstep()
		for i := int64(0); i < n; i++ {
			dense.set(Iv(i, i+1), 1)
		}
		dense.merge(Iv(0, n), always)
		if err := dense.check(); err != nil {
			t.Fatal(err)
		}
		if dense.m.Count() != 1 {
			t.Errorf("contiguous equal entries not fully merged: %d, want 1", dense.m.Count())
		}

		// A front of "released" (value 1) entries grows from the left, one
		// entry per step, merging into its left neighbor each time.
		front := newLockstep()
		for i := int64(0); i < n; i++ {
			front.set(Iv(i, i+1), 0)
		}
		eq1 := func(a, b int) bool { return a == 1 && b == 1 }
		for i := int64(0); i < n; i++ {
			front.visit(Iv(i, i+1), func(_ Interval, v *int) { *v = 1 })
			front.merge(Iv(i, i+1), eq1)
			if err := front.check(); err != nil {
				t.Fatalf("front step %d: %v", i, err)
			}
			if want := int(n - i); front.m.Count() != want {
				t.Fatalf("front step %d: %d entries, want %d", i, front.m.Count(), want)
			}
		}
	})
}
