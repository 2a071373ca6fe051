package nanos_test

// Godoc examples: each compiles into the package documentation and runs as
// a test with verified output.

import (
	"fmt"
	"sort"
	"sync/atomic"

	nanos "repro"
)

// The paper's listing 2: a task with two subtasks and the weakwait clause.
// The consumer of "a" becomes ready as soon as subtask T1.1 finishes — not
// when all of T1 does — because the fine-grained release hands T1's
// dependency over to the covering subtask.
func Example() {
	rt := nanos.New(nanos.Config{Workers: 4})
	vars := rt.NewData("vars", 2, 8)
	a, b := nanos.Iv(0, 1), nanos.Iv(1, 2)

	var log []string
	var mu atomic.Int32
	record := func(s string) {
		for !mu.CompareAndSwap(0, 1) {
		}
		log = append(log, s)
		mu.Store(0)
	}

	rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{
			Label:    "T1",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DInOut(vars, a, b)},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(nanos.TaskSpec{Label: "T1.1",
					Deps: []nanos.Dep{nanos.DInOut(vars, a)},
					Body: func(*nanos.TaskContext) { record("T1.1") }})
				tc.Submit(nanos.TaskSpec{Label: "T1.2",
					Deps: []nanos.Dep{nanos.DInOut(vars, b)},
					Body: func(*nanos.TaskContext) { record("T1.2") }})
			},
		})
		tc.Submit(nanos.TaskSpec{Label: "T2",
			Deps: []nanos.Dep{nanos.DIn(vars, a)},
			Body: func(*nanos.TaskContext) { record("T2") }})
	})

	// T2 ran after T1.1 (its only real predecessor); sort for stable output.
	sort.Strings(log)
	fmt.Println(log)
	// Output: [T1.1 T1.2 T2]
}

// Taskloop splits an iteration space into grain-sized chunk tasks; with a
// Deps callback the chunks take part in the dependency system.
func ExampleTaskloop() {
	rt := nanos.New(nanos.Config{Workers: 4})
	d := rt.NewData("x", 100, 8)
	var sum atomic.Int64
	rt.Run(func(tc *nanos.TaskContext) {
		n := nanos.Taskloop(tc, nanos.TaskloopSpec{
			Label: "chunk",
			Lo:    0, Hi: 100, Grain: 32,
			Deps: func(lo, hi int64) []nanos.Dep {
				return []nanos.Dep{nanos.DOut(d, nanos.Iv(lo, hi))}
			},
			Body: func(_ *nanos.TaskContext, lo, hi int64) {
				sum.Add(hi - lo)
			},
		})
		fmt.Println("chunks:", n)
	})
	fmt.Println("iterations:", sum.Load())
	// Output:
	// chunks: 4
	// iterations: 100
}

// RunChecked returns a *TaskError when a task body panics, after the
// remaining dependency graph has drained.
func ExampleRuntime_RunChecked() {
	rt := nanos.New(nanos.Config{Workers: 2})
	err := rt.RunChecked(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{Label: "bad", Body: func(*nanos.TaskContext) {
			panic("boom")
		}})
	})
	fmt.Println(err)
	// Output: core: task "bad" panicked: boom
}

// Release lets a task drop part of its depend set early (§V): successors
// over the released region become ready while the task keeps running.
func ExampleTaskContext_Release() {
	rt := nanos.New(nanos.Config{Workers: 2})
	d := rt.NewData("x", 100, 8)
	consumed := make(chan struct{})
	rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{
			Label: "producer",
			Deps:  []nanos.Dep{nanos.DOut(d, nanos.Iv(0, 100))},
			Body: func(tc *nanos.TaskContext) {
				// First half finished; release it before doing the rest.
				tc.Release(nanos.DOut(d, nanos.Iv(0, 50)))
				<-consumed // the consumer runs while this task is still live
				fmt.Println("consumed before the producer finished")
			},
		})
		tc.Submit(nanos.TaskSpec{
			Label: "consumer",
			Deps:  []nanos.Dep{nanos.DIn(d, nanos.Iv(0, 50))},
			Body:  func(*nanos.TaskContext) { close(consumed) },
		})
	})
	// Output: consumed before the producer finished
}

// Verification mode records a finding when a child's depend entry escapes
// its parent's — the data-race hazard of §III.
func ExampleConfig_verify() {
	rt := nanos.New(nanos.Config{Workers: 2, Verify: true})
	d := rt.NewData("x", 100, 8)
	rt.Run(func(tc *nanos.TaskContext) {
		tc.Submit(nanos.TaskSpec{
			Label:    "parent",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DWeakInOut(d, nanos.Iv(0, 50))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(nanos.TaskSpec{
					Label: "child",
					Deps:  []nanos.Dep{nanos.DIn(d, nanos.Iv(40, 60))},
				})
			},
		})
	})
	for _, v := range rt.Violations() {
		fmt.Println(v)
	}
	// Output: child-coverage: task "child" reads data 0 [[50,60)] outside parent "parent"'s depend entries
}
