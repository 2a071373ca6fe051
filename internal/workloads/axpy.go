package workloads

import (
	"time"

	nanos "repro"
)

// AxpyVariant names one implementation of the Multiple-AXPY benchmark
// (Table I of the paper).
type AxpyVariant string

const (
	// AxpyNestWeakRelease: nesting, weak outer deps, weakwait, and the
	// release directive after each subtask (row 1 of Table I).
	AxpyNestWeakRelease AxpyVariant = "nest-weak-release"
	// AxpyNestWeak: nesting, weak outer deps, weakwait (row 2).
	AxpyNestWeak AxpyVariant = "nest-weak"
	// AxpyNestDepend: nesting, strong deps, taskwait at the end of the
	// outer task (row 3) — the pre-extension OpenMP formulation.
	AxpyNestDepend AxpyVariant = "nest-depend"
	// AxpyFlatDepend: no nesting, inner tasks with dependencies directly in
	// the root domain (row 4).
	AxpyFlatDepend AxpyVariant = "flat-depend"
	// AxpyFlatTaskwait: no nesting, no dependencies, a taskwait barrier
	// between calls (row 5).
	AxpyFlatTaskwait AxpyVariant = "flat-taskwait"
	// AxpyWorksharing: one worksharing region per call — a single task
	// carrying the union depend entries over x and y, its TaskSize-grained
	// chunks self-scheduled across the fleet (beyond Table I; the
	// worksharing-tasks direction of PAPERS.md). Its per-chunk-task
	// baseline is AxpyFlatDepend at the same TaskSize: the same leaves with
	// the same depend entries, Cost and Flops, one task each.
	AxpyWorksharing AxpyVariant = "worksharing"
)

// AxpyVariants lists all variants in Table I's order.
var AxpyVariants = []AxpyVariant{
	AxpyNestWeakRelease, AxpyNestWeak, AxpyNestDepend, AxpyFlatDepend, AxpyFlatTaskwait,
}

// AxpyParams sizes the Multiple-AXPY benchmark: Calls applications of
// y ← alpha·x + y over N-element vectors, decomposed into TaskSize-element
// leaf tasks (listing 5 of the paper).
type AxpyParams struct {
	N        int64
	Calls    int
	TaskSize int64
	Alpha    float64
	// Compute performs the real arithmetic (and validates the result).
	// Virtual-mode sweeps can disable it; leaf cost is TaskSize either way.
	Compute bool
}

// RunAxpy executes one Multiple-AXPY variant and returns its measurements.
func RunAxpy(mode Mode, variant AxpyVariant, p AxpyParams) (Result, error) {
	if p.N <= 0 || p.TaskSize <= 0 || p.Calls <= 0 {
		return Result{}, errf("axpy: bad params %+v", p)
	}
	rt := nanos.New(mode.config())
	xd := rt.NewData("x", p.N, 8)
	yd := rt.NewData("y", p.N, 8)

	var x, y []float64
	if p.Compute {
		x = make([]float64, p.N)
		y = make([]float64, p.N)
		for i := range x {
			x[i] = 1
		}
	}

	leaf := func(start, end int64) nanos.TaskSpec {
		count := end - start
		return nanos.TaskSpec{
			Label: "axpy-block",
			Kind:  "axpy",
			Cost:  count,
			Flops: 2 * count,
			Deps: []nanos.Dep{
				nanos.DIn(xd, nanos.Iv(start, end)),
				nanos.DInOut(yd, nanos.Iv(start, end)),
			},
			Body: func(*nanos.TaskContext) {
				if p.Compute {
					for i := start; i < end; i++ {
						y[i] += p.Alpha * x[i]
					}
				}
			},
		}
	}
	// bareLeaf is the flat-taskwait leaf: same work, no depend clause; the
	// accesses are still declared to the cache simulator.
	bareLeaf := func(start, end int64) nanos.TaskSpec {
		s := leaf(start, end)
		s.Touches = s.Deps
		s.Deps = nil
		return s
	}
	// noTouch marks tasks that only instantiate subtasks: their depend
	// entries protect the subtasks' accesses, the body touches no data.
	noTouch := []nanos.Dep{}
	forBlocks := func(f func(start, end int64)) {
		for start := int64(0); start < p.N; start += p.TaskSize {
			f(start, min64(start+p.TaskSize, p.N))
		}
	}

	startT := time.Now()
	switch variant {
	case AxpyWorksharing:
		rt.Run(func(tc *nanos.TaskContext) {
			for c := 0; c < p.Calls; c++ {
				tc.Worksharing(nanos.WorksharingSpec{
					Label: "axpy-ws",
					Lo:    0, Hi: p.N, Grain: p.TaskSize,
					Deps: func(lo, hi int64) []nanos.Dep {
						return []nanos.Dep{
							nanos.DIn(xd, nanos.Iv(lo, hi)),
							nanos.DInOut(yd, nanos.Iv(lo, hi)),
						}
					},
					Flops: func(lo, hi int64) int64 { return 2 * (hi - lo) },
					Body: func(_ *nanos.TaskContext, lo, hi int64) {
						if p.Compute {
							for i := lo; i < hi; i++ {
								y[i] += p.Alpha * x[i]
							}
						}
					},
				})
			}
		})

	case AxpyFlatDepend:
		rt.Run(func(tc *nanos.TaskContext) {
			for c := 0; c < p.Calls; c++ {
				forBlocks(func(s, e int64) { tc.Submit(leaf(s, e)) })
			}
		})

	case AxpyFlatTaskwait:
		if mode.Virtual {
			// Virtual mode cannot block the driver in Taskwait; the barrier
			// is expressed as a per-call parent chained through a sentinel,
			// which has identical ordering semantics.
			sentinel := rt.NewData("barrier", 1, 8)
			rt.Run(func(tc *nanos.TaskContext) {
				for c := 0; c < p.Calls; c++ {
					tc.Submit(nanos.TaskSpec{
						Label:   "axpy-call",
						Kind:    "call",
						Touches: noTouch,
						Deps:    []nanos.Dep{nanos.DInOut(sentinel, nanos.Iv(0, 1))},
						Body: func(tc *nanos.TaskContext) {
							forBlocks(func(s, e int64) { tc.Submit(bareLeaf(s, e)) })
						},
					})
				}
			})
		} else {
			rt.Run(func(tc *nanos.TaskContext) {
				for c := 0; c < p.Calls; c++ {
					forBlocks(func(s, e int64) { tc.Submit(bareLeaf(s, e)) })
					tc.Taskwait()
				}
			})
		}

	case AxpyNestDepend:
		rt.Run(func(tc *nanos.TaskContext) {
			for c := 0; c < p.Calls; c++ {
				tc.Submit(nanos.TaskSpec{
					Label:   "axpy-call",
					Kind:    "call",
					Touches: noTouch,
					Deps: []nanos.Dep{
						nanos.DIn(xd, nanos.Iv(0, p.N)),
						nanos.DInOut(yd, nanos.Iv(0, p.N)),
					},
					Body: func(tc *nanos.TaskContext) {
						forBlocks(func(s, e int64) { tc.Submit(leaf(s, e)) })
						if !mode.Virtual {
							// The paper's taskwait at the end of the outer
							// task. In virtual mode the default wait-clause
							// completion has the same release timing.
							tc.Taskwait()
						}
					},
				})
			}
		})

	case AxpyNestWeak, AxpyNestWeakRelease:
		release := variant == AxpyNestWeakRelease
		rt.Run(func(tc *nanos.TaskContext) {
			for c := 0; c < p.Calls; c++ {
				tc.Submit(nanos.TaskSpec{
					Label:    "axpy-call",
					Kind:     "call",
					Touches:  noTouch,
					WeakWait: true,
					Deps: []nanos.Dep{
						nanos.DWeakIn(xd, nanos.Iv(0, p.N)),
						nanos.DWeakInOut(yd, nanos.Iv(0, p.N)),
					},
					Body: func(tc *nanos.TaskContext) {
						forBlocks(func(s, e int64) {
							tc.Submit(leaf(s, e))
							if release {
								// Release the inout region the just-created
								// subtask covers (§VIII-A): the hand-over
								// makes the region flow to the next call as
								// soon as the subtask finishes.
								tc.Release(nanos.DWeakInOut(yd, nanos.Iv(s, e)))
							}
						})
					},
				})
			}
		})

	default:
		return Result{}, errf("axpy: unknown variant %q", variant)
	}

	res := measure(rt, startT)
	if p.Compute {
		want := float64(p.Calls) * p.Alpha
		for i, v := range y {
			if v != want {
				return res, errf("axpy %s: y[%d] = %v, want %v", variant, i, v, want)
			}
		}
	}
	return res, nil
}

// AxpyFeatures returns the Table I feature row of a variant: nested,
// outer/inner dependency kinds and synchronization between levels.
func AxpyFeatures(v AxpyVariant) (nested, outerDeps, innerDeps, sync string) {
	switch v {
	case AxpyNestWeakRelease:
		return "yes", "weak", "regular", "weakwait and release directive"
	case AxpyNestWeak:
		return "yes", "weak", "regular", "weakwait"
	case AxpyNestDepend:
		return "yes", "regular", "regular", "taskwait"
	case AxpyFlatDepend:
		return "no", "—", "regular", "no"
	case AxpyFlatTaskwait:
		return "no", "—", "none", "taskwait"
	case AxpyWorksharing:
		return "no", "—", "union (one task)", "chunk-distributed body"
	}
	return "?", "?", "?", "?"
}
