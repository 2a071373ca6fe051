package graphdump

import (
	"fmt"
	"strings"

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

// newFigureBuilder's runtime has one worker, so the capture shows each edge
// the listing implies. In real mode the root holds the only token while it
// submits, so no outer task has run when the next one registers. Virtual
// mode (for listing 3, which has no Taskwait) runs its FIFO ready list: every
// outer task starts, and instantiates its subtasks, before any leaf runs —
// so T3's and T4's subtasks link to inputs not yet produced, which is what
// Figure 2b's inbound edges need. (On the real pool's creator lane, each
// outer task's leaves run before the next outer task starts, and those
// edges are never created.)
func newFigureBuilder(virtual bool) *figureBuilder {
	c := New()
	rt := nanos.New(nanos.Config{Workers: 1, Virtual: virtual, Observer: c})
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
	f := newFigureBuilder(false)
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
	f := newFigureBuilder(false)
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
	f := newFigureBuilder(true)
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

// Figures are the names Figure renders, in paper order.
var Figures = []string{"1a", "1b", "2a", "2b", "2c"}

// Figure renders one of the paper's Figures 1 and 2 as Graphviz DOT,
// captured live from the runtime executing listing 1 or 3; ok is false for
// a name not in Figures. Figure 2a is listing 3 filtered to its outer
// tasks. Figure 2c is the graph the runtime's execution of listing 3 is
// ordering-equivalent to after the outer tasks exit — the flat graph of
// Figure 1b; the equivalence itself is asserted by the runtime's tests.
func Figure(name string) (dot string, ok bool) {
	switch name {
	case "1a":
		c, vars := Listing1Nested()
		return c.DOT("figure-1a", vars), true
	case "1b":
		c, vars := Listing1Flat()
		return c.DOT("figure-1b", vars), true
	case "2a":
		c, _ := Listing3Weak()
		var b strings.Builder
		b.WriteString("digraph \"figure-2a\" {\n  node [shape=box];\n")
		for _, e := range c.OuterOnly() {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed];\n", e.Pred, e.Succ)
		}
		b.WriteString("}\n")
		return b.String(), true
	case "2b":
		c, vars := Listing3Weak()
		return c.DOT("figure-2b", vars), true
	case "2c":
		c, vars := Listing1Flat()
		return "// Figure 2c: after the outer tasks exit, the fine-grained release\n" +
			"// merges every inner domain into the root domain; the effective\n" +
			"// ordering equals the flat graph of figure 1b (runtime-verified).\n" +
			c.DOT("figure-2c", vars), true
	}
	return "", false
}
