package regions

import (
	"fmt"
	"testing"
)

// splitMerger is what BenchmarkMapSplitMerge needs of a map; the chunked Map
// and the flat model both provide it.
type splitMerger interface {
	Set(Interval, int)
	VisitRange(Interval, func(Interval, *int))
	MergeRange(Interval, func(a, b int) bool)
}

// BenchmarkMapSplitMerge measures one split-and-merge-back cycle in the
// middle of a map holding N entries, the edit a partial release makes: carve
// the inside out of one entry (two splits), then restore it and merge the
// three pieces back. A flat sorted array pays for the entries behind the
// edit on each of the four moves, so its cost grows with N; the chunked map
// pays for one block. The flat rows are the model from map_test.go, kept as
// the "before".
func BenchmarkMapSplitMerge(b *testing.B) {
	impls := []struct {
		name string
		new  func() splitMerger
	}{
		{"", func() splitMerger { return NewMap[int](nil) }},
		{"flat/", func() splitMerger { return &flatMap[int]{} }},
	}
	sizes := []struct {
		name string
		n    int64
	}{{"64", 64}, {"1k", 1 << 10}, {"16k", 1 << 14}}
	for _, impl := range impls {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%sN=%s", impl.name, size.name), func(b *testing.B) {
				m := impl.new()
				for k := int64(0); k < size.n; k++ {
					m.Set(Iv(4*k, 4*k+4), int(k)) // distinct values: neighbors never merge
				}
				mark := func(_ Interval, v *int) { *v = -*v - 1 }
				unmark := func(_ Interval, v *int) {
					if *v < 0 {
						*v = -*v - 1
					}
				}
				eq := func(x, y int) bool { return x == y }
				b.ResetTimer()
				k := int64(0)
				for i := 0; i < b.N; i++ {
					k = (k + 7919) % size.n // a stride that wanders over the whole map
					m.VisitRange(Iv(4*k+1, 4*k+3), mark)
					m.VisitRange(Iv(4*k, 4*k+4), unmark)
					m.MergeRange(Iv(4*k, 4*k+4), eq)
				}
			})
		}
	}
}
