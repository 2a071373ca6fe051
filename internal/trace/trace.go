// Package trace records per-worker task execution spans and derives the
// paper's timeline artifacts: the execution timeline of Figure 7 (rendered
// as ASCII), the effective-parallelism metric of Figure 6 (total busy time
// over wall time), and phase-overlap measurements.
//
// Recording is lock-free per worker: a span is appended by the goroutine
// currently holding that worker's token, which the scheduler serializes.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind identifies a task category (e.g. "quick_sort", "prefix_sum"). Kinds
// are registered by name and rendered with one letter each.
type Kind uint8

// Span is one task execution on one worker, in nanoseconds since the run
// start (real mode) or virtual time units (virtual mode).
type Span struct {
	Worker     int
	Kind       Kind
	Start, End int64
}

// Tracer accumulates spans for a fixed set of workers.
type Tracer struct {
	perWorker [][]Span

	mu    sync.Mutex
	kinds []string
}

// New creates a tracer for the given number of workers.
func New(workers int) *Tracer {
	return &Tracer{perWorker: make([][]Span, workers)}
}

// KindID registers (or finds) a kind by name.
func (t *Tracer) KindID(name string) Kind {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range t.kinds {
		if k == name {
			return Kind(i)
		}
	}
	t.kinds = append(t.kinds, name)
	return Kind(len(t.kinds) - 1)
}

// KindName returns the registered name of k.
func (t *Tracer) KindName(k Kind) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(k) < len(t.kinds) {
		return t.kinds[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// Kinds returns the registered kind names in id order.
func (t *Tracer) Kinds() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.kinds))
	copy(out, t.kinds)
	return out
}

// Record appends a span for worker w. Must only be called by the goroutine
// holding worker w's token.
func (t *Tracer) Record(w int, k Kind, start, end int64) {
	if w < 0 || w >= len(t.perWorker) {
		return
	}
	t.perWorker[w] = append(t.perWorker[w], Span{Worker: w, Kind: k, Start: start, End: end})
}

// Workers returns the worker count.
func (t *Tracer) Workers() int { return len(t.perWorker) }

// Spans returns all spans sorted by start time.
func (t *Tracer) Spans() []Span {
	var out []Span
	for _, ws := range t.perWorker {
		out = append(out, ws...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// BusyTime returns the time during which each worker had a span open,
// summed across workers. Spans of one worker may nest — a task run inline
// by a waiting task on the same worker records its span inside the
// waiter's — so per worker this is the length of the union of its spans,
// not the sum of their durations, and busy time never exceeds the extent.
func (t *Tracer) BusyTime() int64 {
	var sum int64
	var spans []Span
	for _, ws := range t.perWorker {
		spans = append(spans[:0], ws...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		var end int64
		for i, s := range spans {
			if i == 0 || s.Start > end {
				sum += s.End - s.Start
				end = s.End
			} else if s.End > end {
				sum += s.End - end
				end = s.End
			}
		}
	}
	return sum
}

// Extent returns the [min start, max end] over all spans (0,0 if empty).
func (t *Tracer) Extent() (int64, int64) {
	first := true
	var lo, hi int64
	for _, ws := range t.perWorker {
		for _, s := range ws {
			if first || s.Start < lo {
				lo = s.Start
			}
			if first || s.End > hi {
				hi = s.End
			}
			first = false
		}
	}
	return lo, hi
}

// EffectiveParallelism returns busy time divided by the given wall time —
// the metric of Figure 6. wall <= 0 uses the trace extent.
func (t *Tracer) EffectiveParallelism(wall int64) float64 {
	if wall <= 0 {
		lo, hi := t.Extent()
		wall = hi - lo
	}
	if wall <= 0 {
		return 0
	}
	return float64(t.BusyTime()) / float64(wall)
}

// kindGlyphs is the palette used by the ASCII timeline.
const kindGlyphs = "QPASBCDEFGHIJKLMNORTUVWXYZqprstuvwxyz"

// RenderASCII renders the timeline as one row per worker and width columns
// spanning the trace extent, with one glyph per kind ('.' = idle). It is
// the reproduction of Figure 7's Paraver timelines.
func (t *Tracer) RenderASCII(width int) string {
	lo, hi := t.Extent()
	if hi <= lo || width <= 0 {
		return "(empty trace)\n"
	}
	span := hi - lo
	var b strings.Builder
	for w := range t.perWorker {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.perWorker[w] {
			c0 := int((s.Start - lo) * int64(width) / span)
			c1 := int((s.End - lo) * int64(width) / span)
			if c1 <= c0 {
				c1 = c0 + 1
			}
			if c1 > width {
				c1 = width
			}
			g := byte('?')
			if int(s.Kind) < len(kindGlyphs) {
				g = kindGlyphs[s.Kind]
			}
			for c := c0; c < c1; c++ {
				row[c] = g
			}
		}
		fmt.Fprintf(&b, "w%02d |%s|\n", w, row)
	}
	// Legend.
	b.WriteString("     ")
	for i, name := range t.Kinds() {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%c=%s", kindGlyphs[i], name)
	}
	b.WriteString("  .=idle\n")
	return b.String()
}

// Overlap returns the total time during which at least one span of a kind
// in setA and one of a kind in setB are simultaneously active — the
// quantitative version of Figure 7's visual claim that quicksort and
// prefix-sum tasks execute concurrently under weak dependencies.
func (t *Tracer) Overlap(setA, setB []Kind) int64 {
	type edge struct {
		at   int64
		a, b int
	}
	inA := make(map[Kind]bool)
	for _, k := range setA {
		inA[k] = true
	}
	inB := make(map[Kind]bool)
	for _, k := range setB {
		inB[k] = true
	}
	var edges []edge
	for _, ws := range t.perWorker {
		for _, s := range ws {
			var da, db int
			if inA[s.Kind] {
				da = 1
			}
			if inB[s.Kind] {
				db = 1
			}
			if da == 0 && db == 0 {
				continue
			}
			edges = append(edges, edge{s.Start, da, db}, edge{s.End, -da, -db})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var overlap int64
	var actA, actB int
	var prev int64
	for _, e := range edges {
		if actA > 0 && actB > 0 {
			overlap += e.at - prev
		}
		actA += e.a
		actB += e.b
		prev = e.at
	}
	return overlap
}

// KindTime returns the total busy time of one kind.
func (t *Tracer) KindTime(k Kind) int64 {
	var sum int64
	for _, ws := range t.perWorker {
		for _, s := range ws {
			if s.Kind == k {
				sum += s.End - s.Start
			}
		}
	}
	return sum
}
