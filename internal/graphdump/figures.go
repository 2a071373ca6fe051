package graphdump

import (
	nanos "repro"
	"repro/internal/deps"
)

// This file builds the paper's listing 1 and listing 3 as runnable task
// programs and captures their dependency graphs — the material of Figures 1
// and 2. Variables a,b,z,c,d,e,f are one-element regions of a single data
// object, as in the listings.

// FigureVars maps the captured DataID to the listing's variable names.
type FigureVars = map[deps.DataID]string

const (
	vA = iota
	vB
	vZ
	vC
	vD
	vE
	vF
)

func varIv(v int64) nanos.Interval { return nanos.Iv(v, v+1) }

func varNames(d deps.DataID) FigureVars {
	_ = d
	return FigureVars{0: "a-f"}
}

type figureBuilder struct {
	cap *Capture
	rt  *nanos.Runtime
	d   nanos.DataID
}

// newFigureBuilder's runtime runs newest-first on one worker (the central
// LIFO queue): every outer task then instantiates its subtasks before any
// predecessor has run, so the capture shows each edge the listing implies.
// The default pool starts all-weak tasks in program order, under which T3's
// and T4's subtasks find their inputs already produced and Figure 2b's
// inbound edges are never created.
func newFigureBuilder() *figureBuilder {
	c := New()
	rt := nanos.New(nanos.Config{Workers: 1, Observer: c, Policy: nanos.LIFO})
	d := rt.NewData("vars", 7, 8)
	return &figureBuilder{cap: c, rt: rt, d: d}
}

// inner builds one leaf task of the listings.
func (f *figureBuilder) inner(label string, ins []int64, outs []int64, inouts []int64) nanos.TaskSpec {
	var ds []nanos.Dep
	for _, v := range ins {
		ds = append(ds, nanos.DIn(f.d, varIv(v)))
	}
	for _, v := range outs {
		ds = append(ds, nanos.DOut(f.d, varIv(v)))
	}
	for _, v := range inouts {
		ds = append(ds, nanos.DInOut(f.d, varIv(v)))
	}
	return nanos.TaskSpec{Label: label, Deps: ds, Body: func(*nanos.TaskContext) {}}
}

// Listing1Nested captures the graph of listing 1: two levels, strong outer
// dependencies, taskwait at the end of each outer task (Figure 1a).
func Listing1Nested() (*Capture, FigureVars) {
	f := newFigureBuilder()
	d := f.d
	f.rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{Label: "T1",
			Deps: []nanos.Dep{nanos.DInOut(d, varIv(vA), varIv(vB))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T1.1", nil, nil, []int64{vA}))
				tc.Submit(f.inner("T1.2", nil, nil, []int64{vB}))
				tc.Taskwait()
			}})
		tc.Submit(nanos.TaskSpec{Label: "T2",
			Deps: []nanos.Dep{nanos.DIn(d, varIv(vA), varIv(vB)), nanos.DOut(d, varIv(vZ), varIv(vC), varIv(vD))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T2.1", []int64{vA}, []int64{vC}, nil))
				tc.Submit(f.inner("T2.2", []int64{vB}, []int64{vD}, nil))
				tc.Taskwait()
			}})
		tc.Submit(nanos.TaskSpec{Label: "T3",
			Deps: []nanos.Dep{nanos.DIn(d, varIv(vA), varIv(vB), varIv(vD)), nanos.DOut(d, varIv(vE), varIv(vF))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T3.1", []int64{vA, vD}, []int64{vE}, nil))
				tc.Submit(f.inner("T3.2", []int64{vB}, []int64{vF}, nil))
				tc.Taskwait()
			}})
		tc.Submit(nanos.TaskSpec{Label: "T4",
			Deps: []nanos.Dep{nanos.DIn(d, varIv(vC), varIv(vD), varIv(vE), varIv(vF))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T4.1", []int64{vC, vE}, nil, nil))
				tc.Submit(f.inner("T4.2", []int64{vD, vF}, nil, nil))
				tc.Taskwait()
			}})
	})
	return f.cap, varNames(d)
}

// Listing1Flat captures the graph after removing the outer level of tasks
// and the taskwaits (Figure 1b).
func Listing1Flat() (*Capture, FigureVars) {
	f := newFigureBuilder()
	f.rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(f.inner("T1.1", nil, nil, []int64{vA}))
		tc.Submit(f.inner("T1.2", nil, nil, []int64{vB}))
		tc.Submit(f.inner("T2.1", []int64{vA}, []int64{vC}, nil))
		tc.Submit(f.inner("T2.2", []int64{vB}, []int64{vD}, nil))
		tc.Submit(f.inner("T3.1", []int64{vA, vD}, []int64{vE}, nil))
		tc.Submit(f.inner("T3.2", []int64{vB}, []int64{vF}, nil))
		tc.Submit(f.inner("T4.1", []int64{vC, vE}, nil, nil))
		tc.Submit(f.inner("T4.2", []int64{vD, vF}, nil, nil))
	})
	return f.cap, varNames(f.d)
}

// Listing3Weak captures the graph of listing 3: weak outer dependencies,
// weakwait, inner tasks inheriting dependencies through the weak accesses
// (Figure 2b; filtering to outer tasks gives Figure 2a, and the runtime's
// execution of it is ordering-equivalent to Listing1Flat — Figure 2c).
func Listing3Weak() (*Capture, FigureVars) {
	f := newFigureBuilder()
	d := f.d
	f.rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{Label: "T1", WeakWait: true,
			Deps: []nanos.Dep{nanos.DInOut(d, varIv(vA), varIv(vB))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T1.1", nil, nil, []int64{vA}))
				tc.Submit(f.inner("T1.2", nil, nil, []int64{vB}))
			}})
		tc.Submit(nanos.TaskSpec{Label: "T2", WeakWait: true,
			Deps: []nanos.Dep{
				nanos.DOut(d, varIv(vZ)),
				nanos.DWeakIn(d, varIv(vA), varIv(vB)),
				nanos.DWeakOut(d, varIv(vC), varIv(vD)),
			},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T2.1", []int64{vA}, []int64{vC}, nil))
				tc.Submit(f.inner("T2.2", []int64{vB}, []int64{vD}, nil))
			}})
		tc.Submit(nanos.TaskSpec{Label: "T3", WeakWait: true,
			Deps: []nanos.Dep{
				nanos.DWeakIn(d, varIv(vA), varIv(vB), varIv(vD)),
				nanos.DWeakOut(d, varIv(vE), varIv(vF)),
			},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T3.1", []int64{vA, vD}, []int64{vE}, nil))
				tc.Submit(f.inner("T3.2", []int64{vB}, []int64{vF}, nil))
			}})
		tc.Submit(nanos.TaskSpec{Label: "T4", WeakWait: true,
			Deps: []nanos.Dep{nanos.DWeakIn(d, varIv(vC), varIv(vD), varIv(vE), varIv(vF))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(f.inner("T4.1", []int64{vC, vE}, nil, nil))
				tc.Submit(f.inner("T4.2", []int64{vD, vF}, nil, nil))
			}})
	})
	return f.cap, varNames(d)
}

// OuterOnly filters a capture's edges to those between top-level tasks
// (direct children of main) — the Figure 2a view.
func (c *Capture) OuterOnly() []Edge {
	c.mu.Lock()
	parent := make(map[string]string, len(c.parent))
	for k, v := range c.parent {
		parent[k] = v
	}
	c.mu.Unlock()
	var out []Edge
	for _, e := range c.Edges() {
		if parent[e.Pred] == "main" && parent[e.Succ] == "main" {
			out = append(out, e)
		}
	}
	return out
}
