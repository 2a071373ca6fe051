// Lint example: the runtime's verification mode (Config.Verify) checking a
// task program's depend annotations, in the spirit of Nanos6's verification
// tooling.
//
// Two kinds of findings are demonstrated:
//
//   - a Touch assertion not covered by the task's strong depend entries
//     (here: a task that writes under a depend(in:) entry, and a task that
//     touches data through a weak entry — weak entries declare that the
//     task itself performs no access, §VI);
//   - a child task whose depend entry escapes its parent's entries — the
//     data-race hazard of combining nesting with dependencies that §III
//     describes: nothing orders the escaping access against the parent's
//     siblings.
//
// Run with:
//
//	go run ./examples/lint
package main

import (
	"fmt"
	"io"
	"os"
	"slices"

	nanos "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}
}

// run executes the annotated program under Config.Verify, prints the
// findings to w, and fails unless they are exactly the three listed above.
func run(w io.Writer) error {
	rt := nanos.New(nanos.Config{Workers: 4, Verify: true})
	x := rt.NewData("x", 1000, 8)
	y := rt.NewData("y", 1000, 8)
	data := make([]float64, 1000)

	rt.Run(func(tc *nanos.TaskContext) {
		// A correct task: the Touch assertions match the depend entries.
		tc.Submit(nanos.TaskSpec{
			Label: "well-formed",
			Deps:  []nanos.Dep{nanos.DInOut(x, nanos.Iv(0, 500))},
			Body: func(tc *nanos.TaskContext) {
				tc.Touch(x, false, nanos.Iv(0, 500)) // read — covered
				tc.Touch(x, true, nanos.Iv(0, 250))  // write — covered
				for i := 0; i < 250; i++ {
					data[i]++
				}
			},
		})

		// Finding 1: writing under a read-only entry.
		tc.Submit(nanos.TaskSpec{
			Label: "writes-under-in",
			Deps:  []nanos.Dep{nanos.DIn(x, nanos.Iv(0, 500))},
			Body: func(tc *nanos.TaskContext) {
				tc.Touch(x, true, nanos.Iv(100, 200))
			},
		})

		// Finding 2: touching through a weak entry.
		tc.Submit(nanos.TaskSpec{
			Label:    "touches-weak",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DWeakInOut(y, nanos.Iv(0, 1000))},
			Body: func(tc *nanos.TaskContext) {
				tc.Touch(y, false, nanos.Iv(0, 8))
			},
		})

		// Finding 3: a child that escapes its parent's depend entries.
		tc.Submit(nanos.TaskSpec{
			Label:    "parent",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DWeakInOut(y, nanos.Iv(0, 500))},
			Body: func(tc *nanos.TaskContext) {
				tc.Submit(nanos.TaskSpec{
					Label: "escaping-child",
					Deps:  []nanos.Dep{nanos.DInOut(y, nanos.Iv(400, 700))},
				})
			},
		})
	})

	fmt.Fprintf(w, "verification findings: %d\n\n", rt.ViolationCount())
	var got []string
	for i, v := range rt.Violations() {
		fmt.Fprintf(w, "%2d. %s\n", i+1, v)
		got = append(got, v.Task)
	}
	fmt.Fprintln(w, "\n(the well-formed task produced no finding)")
	slices.Sort(got)
	if want := []string{"escaping-child", "touches-weak", "writes-under-in"}; !slices.Equal(got, want) {
		return fmt.Errorf("findings on tasks %v, want exactly %v", got, want)
	}
	return nil
}
