package harness

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/workloads"
)

// This file drives the experiments that go beyond the paper's evaluation
// section: the blocked-Cholesky workload (harness.Cholesky in harness.go),
// the task-granularity microbenchmarks, and the record-and-replay
// graph-region sweeps (replaybench.go).

// FibOverhead prints the per-task overhead exposure: recursive Fibonacci
// under the three granularity cutoffs. Full tasking pays the runtime on
// every call; the sequential and final cutoffs bound it.
func FibOverhead(w io.Writer, o Options) error {
	o = o.defaults()
	n, cutoff := 21, 12
	if o.Quick {
		n, cutoff = 15, 8
	}
	t := metrics.NewTable(
		fmt.Sprintf("Granularity cutoffs — fib(%d), cutoff %d, %d workers", n, cutoff, o.Cores),
		"cutoff mode", "tasks", "wall", "µs/task")
	for _, m := range []workloads.FibCutoffMode{
		workloads.FibCutoffNone, workloads.FibCutoffSequential, workloads.FibCutoffFinal,
	} {
		res, _, err := workloads.RunFib(workloads.Mode{Workers: o.Cores},
			workloads.FibParams{N: n, Cutoff: cutoff, Mode: m})
		if err != nil {
			return err
		}
		perTask := float64(res.Wall.Microseconds()) / float64(res.Tasks)
		t.Add(m.String(), fmt.Sprintf("%d", res.Tasks),
			res.Wall.Round(1000).String(), fmt.Sprintf("%.2f", perTask))
	}
	fmt.Fprintln(w, t)
	return nil
}

// Extensions runs every beyond-the-paper experiment.
func Extensions(w io.Writer, o Options) error {
	fmt.Fprintln(w, "=== Extensions beyond the paper's evaluation ===")
	fmt.Fprintln(w)
	if err := Cholesky(w, o, 16); err != nil {
		return err
	}
	if err := FibOverhead(w, o); err != nil {
		return err
	}
	return ReplayBench(w, o)
}
