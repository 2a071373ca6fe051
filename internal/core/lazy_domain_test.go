package core

import (
	"fmt"
	"testing"
)

// A task without a depend clause takes no part in any dependency domain:
// it gets no engine node at submission, and its body opens a domain of its
// own (domainNode) only when it first needs one. These tests pin both
// halves: clause-free programs never reach the engine, and every path that
// opens a domain lazily keeps the dependency order among the task's
// children.

// TestNoDependNoNode runs two clause-free programs — recursive fib with a
// Taskwait in every inner task, and one creator flooding independent
// leaves behind a throttle window — and requires that the engine created
// no node and that no engine pool object is outstanding at the end.
func TestNoDependNoNode(t *testing.T) {
	var fib func(tc *TaskContext, n int, out *int)
	fib = func(tc *TaskContext, n int, out *int) {
		if n < 2 {
			*out = n
			return
		}
		var a, b int
		tc.Submit(TaskSpec{Label: "fib", Body: func(tc *TaskContext) { fib(tc, n-1, &a) }})
		tc.Submit(TaskSpec{Label: "fib", Body: func(tc *TaskContext) { fib(tc, n-2, &b) }})
		tc.Taskwait()
		*out = a + b
	}
	const leaves = 1024
	programs := []struct {
		name  string
		cfg   Config
		tasks int64
		run   func(tc *TaskContext, t *testing.T)
	}{
		{"fib15", Config{Workers: 2, Debug: true}, 1972, func(tc *TaskContext, t *testing.T) {
			var got int
			fib(tc, 15, &got)
			if got != 610 {
				t.Errorf("fib(15) = %d, want 610", got)
			}
		}},
		{"flood", Config{Workers: 2, ThrottleOpenTasks: 64, Debug: true}, leaves, func(tc *TaskContext, t *testing.T) {
			sums := make([]int, leaves)
			for i := range sums {
				tc.Submit(TaskSpec{Label: "leaf", Body: func(*TaskContext) { sums[i] = i }})
			}
			tc.Taskwait()
			for i, v := range sums {
				if v != i {
					t.Fatalf("leaf %d did not run", i)
				}
			}
		}},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			rt := New(p.cfg)
			if err := rt.RunChecked(func(tc *TaskContext) { p.run(tc, t) }); err != nil {
				t.Fatal(err)
			}
			if n := rt.TaskCount(); n != p.tasks {
				t.Errorf("TaskCount = %d, want %d", n, p.tasks)
			}
			if n := rt.DepStats().Nodes; n != 0 {
				t.Errorf("DepStats().Nodes = %d, want 0: a clause-free task reached the engine", n)
			}
			ms, _ := rt.MemStats()
			if ms.Outstanding() != 0 || ms.Nodes.Gets != 0 {
				t.Errorf("engine pools: %d outstanding, %d node gets; want 0 and 0 (%+v)",
					ms.Outstanding(), ms.Nodes.Gets, ms)
			}
		})
	}
}

// TestLazyDomainPaths drives each way a clause-free task's body opens a
// domain — a child with a depend clause, a release directive, a graph
// region recorded then replayed (the replay's union guard), weakwait — as
// the innermost task of two enclosing shapes: a chain of three clause-free
// tasks, and a creator whose clause is all weak. Each row's children form
// an inout chain over one cell, so the log must come out in submission
// order. The node count pins that only the row task's lazy domain node and
// the nodes of tasks with a depend clause exist. Debug turns any leaked
// fragment or pooled object into a run error.
func TestLazyDomainPaths(t *testing.T) {
	chain := func(tc *TaskContext, cell DataID, log *[]int, from, n int) {
		for i := from; i < from+n; i++ {
			tc.Submit(TaskSpec{
				Label: "link",
				Deps:  []Dep{{Data: cell, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
				Body:  func(*TaskContext) { *log = append(*log, i) },
			})
		}
	}
	rows := []struct {
		name     string
		weakWait bool
		body     func(tc *TaskContext, cell DataID, log *[]int)
		want     []int
		nodes    int64 // the row task's domain node + its children's + guards
		replays  int64
	}{
		{"inout-chain", false, func(tc *TaskContext, cell DataID, log *[]int) {
			chain(tc, cell, log, 0, 4)
		}, []int{0, 1, 2, 3}, 5, 0},
		{"release", false, func(tc *TaskContext, cell DataID, log *[]int) {
			// Before any child there is no node, and nothing to release;
			// after one, the task still holds no access of its own, so
			// the release leaves its children's chain intact.
			tc.Release(Dep{Data: cell, Type: InOut, Ivs: []Interval{iv(0, 1)}})
			chain(tc, cell, log, 0, 2)
			tc.Release(Dep{Data: cell, Type: InOut, Ivs: []Interval{iv(0, 1)}})
			chain(tc, cell, log, 2, 2)
		}, []int{0, 1, 2, 3}, 5, 0},
		{"graph-record-replay", false, func(tc *TaskContext, cell DataID, log *[]int) {
			for run := 0; run < 2; run++ {
				tc.Graph("lazy", func(tc *TaskContext) { chain(tc, cell, log, 3*run, 3) })
			}
		}, []int{0, 1, 2, 3, 4, 5}, 1 + 3 + 1, 1},
		{"weakwait-no-deps", true, func(tc *TaskContext, cell DataID, log *[]int) {
			chain(tc, cell, log, 0, 3)
		}, []int{0, 1, 2}, 4, 0},
	}
	shapes := []struct {
		name  string
		nodes int64 // nodes the enclosing shape adds
		wrap  func(tc *TaskContext, cell DataID, row func(tc *TaskContext))
	}{
		{"clause-free-chain", 0, func(tc *TaskContext, _ DataID, row func(tc *TaskContext)) {
			var nest func(tc *TaskContext, depth int)
			nest = func(tc *TaskContext, depth int) {
				if depth == 0 {
					row(tc)
					return
				}
				tc.Submit(TaskSpec{Label: "wrapper", Body: func(tc *TaskContext) { nest(tc, depth-1) }})
			}
			nest(tc, 3)
		}},
		// The creator's node, and the root's lazy domain node it lives in.
		{"all-weak-creator", 2, func(tc *TaskContext, cell DataID, row func(tc *TaskContext)) {
			tc.Submit(TaskSpec{
				Label:    "creator",
				WeakWait: true,
				Deps:     []Dep{{Data: cell, Type: InOut, Weak: true, Ivs: []Interval{iv(0, 1)}}},
				Body:     row,
			})
		}},
	}
	for _, sh := range shapes {
		for _, row := range rows {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w=%d", sh.name, row.name, workers), func(t *testing.T) {
					rt := New(Config{Workers: workers, Debug: true})
					cell := rt.NewData("cell", 1, 8)
					var log []int
					err := rt.RunChecked(func(tc *TaskContext) {
						sh.wrap(tc, cell, func(tc *TaskContext) {
							tc.Submit(TaskSpec{Label: "row", WeakWait: row.weakWait, Body: func(tc *TaskContext) {
								row.body(tc, cell, &log)
							}})
						})
					})
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(log) != fmt.Sprint(row.want) {
						t.Errorf("log %v, want %v", log, row.want)
					}
					if got, want := rt.DepStats().Nodes, row.nodes+sh.nodes; got != want {
						t.Errorf("DepStats().Nodes = %d, want %d", got, want)
					}
					if got := rt.ReplayStats().Replays; got != row.replays {
						t.Errorf("ReplayStats().Replays = %d, want %d", got, row.replays)
					}
				})
			}
		}
	}
}

// TestLazyDomainWorksharing: the chunk bodies of a worksharing task share
// its context across the workers that joined the drain, and each may
// submit children with a depend clause. A clause-free worksharing task
// must then open exactly one domain, before any helper can submit into it
// (run with -race: a lazy open racing between helpers shows here).
func TestLazyDomainWorksharing(t *testing.T) {
	const cells = 64
	rt := New(Config{Workers: 4, Debug: true})
	d := rt.NewData("cells", cells, 8)
	logs := make([][]int, cells)
	err := rt.RunChecked(func(tc *TaskContext) {
		tc.Worksharing(WorksharingSpec{Lo: 0, Hi: cells, Grain: 1, Body: func(tc *TaskContext, lo, _ int64) {
			for i := 0; i < 2; i++ {
				tc.Submit(TaskSpec{
					Label: "chunk-child",
					Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(lo, lo+1)}}},
					Body:  func(*TaskContext) { logs[lo] = append(logs[lo], i) },
				})
			}
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, log := range logs {
		if fmt.Sprint(log) != "[0 1]" {
			t.Fatalf("cell %d: log %v, want [0 1]", c, log)
		}
	}
	// One domain for the worksharing task, and one node per child.
	if got, want := rt.DepStats().Nodes, int64(1+2*cells); got != want {
		t.Errorf("DepStats().Nodes = %d, want %d", got, want)
	}
}
