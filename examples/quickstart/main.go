// Quickstart: the smallest useful program on the nanos runtime.
//
// It builds the paper's listing 2 scenario: a task T1 with two subtasks and
// the weakwait clause, followed by consumers T2 and T3. With weakwait, T2
// becomes ready as soon as the subtask covering its data finishes — it does
// not wait for the rest of T1's subtree.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	nanos "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run executes the scenario, prints the completion order and engine stats
// to w, and fails if an order the dependencies guarantee was broken.
func run(w io.Writer) error {
	rt := nanos.New(nanos.Config{Workers: 4})

	// Two logical variables a and b: elements 0 and 1 of one data object.
	vars := rt.NewData("vars", 2, 8)
	a := nanos.Iv(0, 1)
	b := nanos.Iv(1, 2)

	var order []string
	done := make(chan string, 8)

	rt.Run(func(tc *nanos.TaskContext) {
		// T1: increments a and b via two subtasks. The weakwait clause lets
		// each variable's dependency release as soon as its subtask ends.
		tc.Submit(nanos.TaskSpec{
			Label:    "T1",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DInOut(vars, a, b)},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(nanos.TaskSpec{
					Label: "T1.1",
					Deps:  []nanos.Dep{nanos.DInOut(vars, a)},
					Body:  func(*nanos.TaskContext) { done <- "T1.1" },
				})
				tc.Submit(nanos.TaskSpec{
					Label: "T1.2",
					Deps:  []nanos.Dep{nanos.DInOut(vars, b)},
					Body: func(*nanos.TaskContext) {
						time.Sleep(50 * time.Millisecond) // the slow sibling
						done <- "T1.2"
					},
				})
			},
		})
		// T2 reads a: ready right after T1.1 — while T1.2 still sleeps.
		tc.Submit(nanos.TaskSpec{
			Label: "T2",
			Deps:  []nanos.Dep{nanos.DIn(vars, a)},
			Body:  func(*nanos.TaskContext) { done <- "T2" },
		})
		// T3 reads b: has to wait for T1.2.
		tc.Submit(nanos.TaskSpec{
			Label: "T3",
			Deps:  []nanos.Dep{nanos.DIn(vars, b)},
			Body:  func(*nanos.TaskContext) { done <- "T3" },
		})
	})
	close(done)
	pos := map[string]int{}
	for l := range done {
		pos[l] = len(order)
		order = append(order, l)
	}

	fmt.Fprintln(w, "completion order:", order)
	fmt.Fprintln(w, "(T2 finishing before T1.2 is the paper's fine-grained release, §V)")
	st := rt.DepStats()
	fmt.Fprintf(w, "dependency engine: %d fragments, %d links, %d hand-overs, %d releases\n",
		st.Fragments, st.Links, st.Handovers, st.Releases)
	// T2-before-T1.2 depends on timing; these two orders do not.
	if len(order) != 4 || pos["T1.1"] > pos["T2"] || pos["T1.2"] > pos["T3"] {
		return fmt.Errorf("completion order %v breaks T1.1 before T2 or T1.2 before T3", order)
	}
	return nil
}
