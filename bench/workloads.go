package main

import (
	"fmt"
	"math"
	"math/rand"

	nanos "repro"
)

// A program is one task program the benchmark owns: inputs generated from
// the seed, a plain sequential reference, and the task formulation written
// against the public nanos API only. The harness drives it as
//
//	newProgram → reference (once) → { reset → bind → root → verify } per rep
type program interface {
	// reference computes the expected output sequentially, without the
	// runtime. Called once in set-up; its duration is run.seq_ms.
	reference()
	// reset restores the data a rep mutates to the generated inputs.
	reset()
	// bind registers the program's data objects with a fresh runtime.
	bind(rt *nanos.Runtime)
	// root is the body of the implicit outermost task. x is the tracing
	// wrapper set; nil means every call goes straight to the runtime.
	root(x *tracer, tc *nanos.TaskContext)
	// verify compares the output bit-for-bit against the reference.
	verify() error
}

// workload names one program with the reason it is in the set.
type workload struct {
	name string
	why  string
	// throttled sets Config.ThrottleOpenTasks = 32·W, the one knob any
	// workload sets besides Workers.
	throttled bool
	build     func(seed int64, quick bool) program
}

var workloads = []workload{
	{
		name: "axpy_nest_weak",
		why:  "paper Table I row 2: weak outer tasks create 256-element leaves in parallel; deps linking across levels and core submit dominate",
		build: func(seed int64, quick bool) program {
			return newAxpy(seed, quick, axpyNestWeak)
		},
	},
	{
		name:      "axpy_flood_throttled",
		why:       "paper Table I row 5: one creator floods dependency-free leaves behind a throttle window; creation is serial, deps idle",
		throttled: true,
		build: func(seed int64, quick bool) program {
			return newAxpy(seed, quick, axpyFlood)
		},
	},
	{
		name:  "sortsum_weak",
		why:   "paper Fig 7: weakwait quicksort feeding a weak prefix sum; irregular recursion, fragmenting intervals, coarse bodies",
		build: newSortSum,
	},
	{
		name:  "fib_taskwait",
		why:   "recursive fib with a Taskwait in every inner task and no depend clauses; bypasses deps, replay and throttle",
		build: newFib,
	},
	{
		name:  "gs_graph_replay",
		why:   "Gauss-Seidel as one Graph region per sweep: first sweep records, the rest replay; replay and sched heavy, deps bypassed",
		build: newGS,
	},
	{
		name: "axpy_ws",
		why:  "the same AXPY as one Worksharing region per call: 20 tasks, chunks off a cursor; guards the repo's largest recorded win",
		build: func(seed int64, quick bool) program {
			return newAxpy(seed, quick, axpyWS)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func sameFloats(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------- AXPY

type axpyVariant uint8

const (
	axpyNestWeak axpyVariant = iota
	axpyFlood
	axpyWS
)

// axpySlices is the number of outer tasks per call in the nested variant.
// It is fixed, not derived from W, so run.tasks is the same on every host.
const axpySlices = 4

// axpy is Multiple-AXPY (paper listing 5): calls applications of
// y ← alpha·x + y over n-element vectors in grain-element pieces.
type axpy struct {
	variant  axpyVariant
	n, grain int64
	calls    int
	alpha    float64
	x, y0    []float64 // generated inputs
	y, ref   []float64 // per-rep output, expected output
	xd, yd   nanos.DataID
	// leaves are the per-block leaf specs, built once in set-up so a rep
	// measures the runtime's submit path, not the building of the specs.
	// bind fills in the data ids.
	leaves []nanos.TaskSpec
}

func axpyKernel(y, x []float64, alpha float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func newAxpy(seed int64, quick bool, v axpyVariant) program {
	p := &axpy{variant: v, n: 1 << 18, grain: 256, calls: 20}
	if quick {
		p.n, p.calls = 1<<12, 4
	}
	rng := rand.New(rand.NewSource(seed))
	p.alpha = 0.5 + rng.Float64()
	p.x = make([]float64, p.n)
	p.y0 = make([]float64, p.n)
	for i := range p.x {
		p.x[i] = rng.Float64()
		p.y0[i] = rng.Float64()
	}
	p.y = make([]float64, p.n)
	return p
}

func (p *axpy) reference() {
	p.ref = append(p.ref[:0], p.y0...)
	for c := 0; c < p.calls; c++ {
		axpyKernel(p.ref, p.x, p.alpha)
	}
}

func (p *axpy) reset() { copy(p.y, p.y0) }

func (p *axpy) bind(rt *nanos.Runtime) {
	p.xd = rt.NewData("x", p.n, 8)
	p.yd = rt.NewData("y", p.n, 8)
	if p.variant == axpyWS {
		return
	}
	p.leaves = p.leaves[:0]
	for lo := int64(0); lo < p.n; lo += p.grain {
		lo, hi := lo, min(lo+p.grain, p.n)
		spec := nanos.TaskSpec{
			Label: "axpy-block",
			Body:  func(*nanos.TaskContext) { axpyKernel(p.y[lo:hi], p.x[lo:hi], p.alpha) },
		}
		if p.variant == axpyNestWeak {
			spec.Deps = []nanos.Dep{
				nanos.DIn(p.xd, nanos.Iv(lo, hi)),
				nanos.DInOut(p.yd, nanos.Iv(lo, hi)),
			}
		}
		p.leaves = append(p.leaves, spec)
	}
}

func (p *axpy) root(x *tracer, tc *nanos.TaskContext) {
	switch p.variant {
	case axpyNestWeak:
		perSlice := len(p.leaves) / axpySlices
		for c := 0; c < p.calls; c++ {
			for s := 0; s < axpySlices; s++ {
				first, last := s*perSlice, (s+1)*perSlice
				lo, hi := int64(first)*p.grain, min(int64(last)*p.grain, p.n)
				x.submit(tc, nanos.TaskSpec{
					Label:    "axpy-call",
					WeakWait: true,
					Deps: []nanos.Dep{
						nanos.DWeakIn(p.xd, nanos.Iv(lo, hi)),
						nanos.DWeakInOut(p.yd, nanos.Iv(lo, hi)),
					},
					Body: func(tc *nanos.TaskContext) {
						for i := first; i < last; i++ {
							x.submit(tc, p.leaves[i])
						}
					},
				})
			}
		}
	case axpyFlood:
		for c := 0; c < p.calls; c++ {
			for i := range p.leaves {
				x.submit(tc, p.leaves[i])
			}
			x.taskwait(tc)
		}
	case axpyWS:
		for c := 0; c < p.calls; c++ {
			x.worksharing(tc, nanos.WorksharingSpec{
				Label: "axpy-ws",
				Lo:    0, Hi: p.n, Grain: p.grain,
				Deps: func(lo, hi int64) []nanos.Dep {
					return []nanos.Dep{
						nanos.DIn(p.xd, nanos.Iv(lo, hi)),
						nanos.DInOut(p.yd, nanos.Iv(lo, hi)),
					}
				},
				Body: func(_ *nanos.TaskContext, lo, hi int64) {
					axpyKernel(p.y[lo:hi], p.x[lo:hi], p.alpha)
				},
			})
		}
	}
}

func (p *axpy) verify() error { return sameFloats(p.y, p.ref) }

// ------------------------------------------------- quicksort → prefix sum

// sortSum is the paper's listing 7: a recursive quicksort whose tasks use
// weakwait, feeding an in-place inclusive prefix sum whose non-leaf tasks
// use weak dependencies, so leaves of both algorithms overlap in time.
type sortSum struct {
	n, base int64
	in      []int64 // generated input
	data    []int64 // per-rep working array
	ref     []int64
	dd      nanos.DataID
}

func newSortSum(seed int64, quick bool) program {
	p := &sortSum{n: 1 << 18, base: 512}
	if quick {
		p.n, p.base = 1<<12, 64
	}
	rng := rand.New(rand.NewSource(seed))
	p.in = make([]int64, p.n)
	for i := range p.in {
		p.in[i] = rng.Int63n(1 << 30)
	}
	p.data = make([]int64, p.n)
	return p
}

func median3(a []int64, lo, hi int64) int64 {
	mid := lo + (hi-lo)/2
	x, y, z := a[lo], a[mid], a[hi-1]
	switch {
	case (x <= y && y <= z) || (z <= y && y <= x):
		return mid
	case (y <= x && x <= z) || (z <= x && x <= y):
		return lo
	default:
		return hi - 1
	}
}

// partition is a Lomuto partition of a[lo:hi) around a median-of-3 pivot;
// it returns p with a[lo:p) < a[p] <= a[p+1:hi), element p final.
func partition(a []int64, lo, hi int64) int64 {
	mi := median3(a, lo, hi)
	a[mi], a[hi-1] = a[hi-1], a[mi]
	pivot := a[hi-1]
	p := lo
	for i := lo; i < hi-1; i++ {
		if a[i] < pivot {
			a[i], a[p] = a[p], a[i]
			p++
		}
	}
	a[p], a[hi-1] = a[hi-1], a[p]
	return p
}

func insertionSort(a []int64, lo, hi int64) {
	for i := lo + 1; i < hi; i++ {
		v := a[i]
		j := i - 1
		for j >= lo && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func (p *sortSum) seqSort(a []int64, lo, hi int64) {
	if hi-lo <= p.base {
		insertionSort(a, lo, hi)
		return
	}
	piv := partition(a, lo, hi)
	if piv > lo+1 {
		p.seqSort(a, lo, piv)
	}
	if piv+1 < hi {
		p.seqSort(a, piv+1, hi)
	}
}

func (p *sortSum) reference() {
	p.ref = append(p.ref[:0], p.in...)
	p.seqSort(p.ref, 0, p.n)
	for i := int64(1); i < p.n; i++ {
		p.ref[i] += p.ref[i-1]
	}
}

func (p *sortSum) reset()                 { copy(p.data, p.in) }
func (p *sortSum) bind(rt *nanos.Runtime) { p.dd = rt.NewData("data", p.n, 8) }

func (p *sortSum) submitQuick(x *tracer, tc *nanos.TaskContext, lo, hi int64) {
	x.submit(tc, nanos.TaskSpec{
		Label:    "quick_sort",
		WeakWait: true,
		Deps:     []nanos.Dep{nanos.DInOut(p.dd, nanos.Iv(lo, hi))},
		Body: func(tc *nanos.TaskContext) {
			if hi-lo <= p.base {
				x.submit(tc, nanos.TaskSpec{
					Label: "insertion_sort",
					Deps:  []nanos.Dep{nanos.DInOut(p.dd, nanos.Iv(lo, hi))},
					Body:  func(*nanos.TaskContext) { insertionSort(p.data, lo, hi) },
				})
				return
			}
			// Element piv is final: with weakwait it is released when this
			// body returns, so the prefix sum starts on sorted prefixes
			// while the sort continues.
			piv := partition(p.data, lo, hi)
			if piv > lo+1 {
				p.submitQuick(x, tc, lo, piv)
			}
			if piv+1 < hi {
				p.submitQuick(x, tc, piv+1, hi)
			}
		},
	})
}

// prefixSum submits the scan of the n elements at lo, lo+stride, …:
// base-case blocks, a recursive scan over each block's last element, then
// per-block accumulation of the previous block's total.
func (p *sortSum) prefixSum(x *tracer, tc *nanos.TaskContext, lo, n, stride int64) {
	data := p.data
	if n <= p.base*stride {
		x.submit(tc, nanos.TaskSpec{
			Label: "prefix_base",
			Deps: []nanos.Dep{
				nanos.DIn(p.dd, nanos.Iv(lo, lo+1)),
				nanos.DInOut(p.dd, nanos.Iv(lo+stride, lo+n)),
			},
			Body: func(*nanos.TaskContext) {
				for i := stride; i < n; i += stride {
					data[lo+i] += data[lo+i-stride]
				}
			},
		})
		return
	}
	for i := int64(0); i < n; i += p.base * stride {
		p.prefixSum(x, tc, lo+i, min(p.base*stride, n-i), stride)
	}
	substart := (p.base - 1) * stride
	x.submit(tc, nanos.TaskSpec{
		Label:    "prefix_sum",
		WeakWait: true,
		Deps:     []nanos.Dep{nanos.DWeakInOut(p.dd, nanos.Iv(lo+substart, lo+n))},
		Body: func(tc *nanos.TaskContext) {
			p.prefixSum(x, tc, lo+substart, n-substart, p.base*stride)
		},
	})
	for i := substart; i+stride < n; i += p.base * stride {
		size := min(p.base*stride, n-i)
		base := lo + i
		x.submit(tc, nanos.TaskSpec{
			Label: "accumulate",
			Deps: []nanos.Dep{
				nanos.DIn(p.dd, nanos.Iv(base, base+1)),
				nanos.DInOut(p.dd, nanos.Iv(base+stride, base+size)),
			},
			Body: func(*nanos.TaskContext) {
				for j := stride; j < size; j += stride {
					data[base+j] += data[base]
				}
			},
		})
	}
}

func (p *sortSum) root(x *tracer, tc *nanos.TaskContext) {
	p.submitQuick(x, tc, 0, p.n)
	x.submit(tc, nanos.TaskSpec{
		Label:    "prefix_sum",
		WeakWait: true,
		Deps:     []nanos.Dep{nanos.DWeakInOut(p.dd, nanos.Iv(0, p.n))},
		Body:     func(tc *nanos.TaskContext) { p.prefixSum(x, tc, 0, p.n, 1) },
	})
}

func (p *sortSum) verify() error {
	for i := range p.ref {
		if p.data[i] != p.ref[i] {
			return fmt.Errorf("prefix[%d] = %d, want %d", i, p.data[i], p.ref[i])
		}
	}
	return nil
}

// ----------------------------------------------------------------- fib

// fib is recursive Fibonacci with no cutoff and no depend clauses: every
// inner task submits two children and blocks in Taskwait for them. It has
// no generated input; the seed does not change it.
type fib struct {
	n         int
	got, want int64
}

func newFib(_ int64, quick bool) program {
	p := &fib{n: 21}
	if quick {
		p.n = 12
	}
	return p
}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func (p *fib) reference()          { p.want = fibSeq(p.n) }
func (p *fib) reset()              { p.got = -1 }
func (p *fib) bind(*nanos.Runtime) {}

func (p *fib) task(x *tracer, tc *nanos.TaskContext, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	x.submit(tc, nanos.TaskSpec{Label: "fib", Body: func(tc *nanos.TaskContext) { p.task(x, tc, n-1, &a) }})
	x.submit(tc, nanos.TaskSpec{Label: "fib", Body: func(tc *nanos.TaskContext) { p.task(x, tc, n-2, &b) }})
	x.taskwait(tc)
	*out = a + b
}

func (p *fib) root(x *tracer, tc *nanos.TaskContext) { p.task(x, tc, p.n, &p.got) }

func (p *fib) verify() error {
	if p.got != p.want {
		return fmt.Errorf("fib(%d) = %d, want %d", p.n, p.got, p.want)
	}
	return nil
}

// -------------------------------------------------------- Gauss-Seidel

// gs is the in-place 5-point Gauss-Seidel sweep over an n×n plane with a
// fixed boundary ring (paper listing 6), one tile task per ts×ts tile with
// dependencies on the tile and its four neighbours, one Graph region per
// sweep.
type gs struct {
	n, ts  int64
	sweeps int
	a0     []float64 // generated initial plane, (n+2)×(n+2)
	a, ref []float64
	ad     nanos.DataID
	// tiles are the per-tile specs in submit order, built once in set-up;
	// bind fills in the data id.
	tiles []nanos.TaskSpec
}

func newGS(seed int64, quick bool) program {
	p := &gs{n: 512, ts: 16, sweeps: 40}
	if quick {
		p.n, p.sweeps = 64, 4
	}
	rng := rand.New(rand.NewSource(seed))
	m := p.n + 2
	p.a0 = make([]float64, m*m)
	for r := int64(0); r < m; r++ {
		for c := int64(0); c < m; c++ {
			if r == 0 || c == 0 || r == m-1 || c == m-1 {
				p.a0[r*m+c] = 1
			} else {
				p.a0[r*m+c] = rng.Float64()
			}
		}
	}
	p.a = make([]float64, m*m)
	return p
}

// gsKernel updates tile (bi, bj), 1-based, of the (n+2)×(n+2) plane a.
func gsKernel(a []float64, n, ts, bi, bj int64) {
	m := n + 2
	r0, c0 := (bi-1)*ts+1, (bj-1)*ts+1
	for r := r0; r < r0+ts; r++ {
		row, up, down := r*m, (r-1)*m, (r+1)*m
		for c := c0; c < c0+ts; c++ {
			a[row+c] = 0.25 * (a[up+c] + a[row+c-1] + a[row+c+1] + a[down+c])
		}
	}
}

func (p *gs) reference() {
	p.ref = append(p.ref[:0], p.a0...)
	b := p.n / p.ts
	for s := 0; s < p.sweeps; s++ {
		for i := int64(1); i <= b; i++ {
			for j := int64(1); j <= b; j++ {
				gsKernel(p.ref, p.n, p.ts, i, j)
			}
		}
	}
}

func (p *gs) reset() { copy(p.a, p.a0) }

func (p *gs) bind(rt *nanos.Runtime) {
	b := p.n / p.ts
	side := b + 2 // block array side including the halo blocks
	p.ad = rt.NewData("A", side*side*p.ts*p.ts, 8)
	blk := func(i, j int64) nanos.Interval { return nanos.BlockInterval(side, p.ts, i, j) }
	p.tiles = p.tiles[:0]
	for i := int64(1); i <= b; i++ {
		for j := int64(1); j <= b; j++ {
			i, j := i, j
			p.tiles = append(p.tiles, nanos.TaskSpec{
				Label: "tile",
				Deps: []nanos.Dep{
					nanos.DIn(p.ad, blk(i-1, j)),
					nanos.DIn(p.ad, blk(i, j-1)),
					nanos.DInOut(p.ad, blk(i, j)),
					nanos.DIn(p.ad, blk(i, j+1)),
					nanos.DIn(p.ad, blk(i+1, j)),
				},
				Body: func(*nanos.TaskContext) { gsKernel(p.a, p.n, p.ts, i, j) },
			})
		}
	}
}

func (p *gs) root(x *tracer, tc *nanos.TaskContext) {
	for s := 0; s < p.sweeps; s++ {
		x.graph(tc, "gs-sweep", func(tc *nanos.TaskContext) {
			for i := range p.tiles {
				x.submit(tc, p.tiles[i])
			}
		})
	}
}

func (p *gs) verify() error { return sameFloats(p.a, p.ref) }
