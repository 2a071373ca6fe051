// SparseLU example: blocked sparse LU factorization with fill-in — the
// classic BOTS workload — written top-down with one weak panel task per
// elimination step.
//
// A symbolic phase materializes the fill-in pattern; the numeric phase then
// runs fully task-parallel: each panel declares depend(weakinout:) over its
// trailing square (regions of successive panels overlap partially, §VII),
// instantiates its lu0/fwd/bdiv/bmod kernels in parallel with the other
// panels (§VI), and hands its dependencies over to them at body exit (§V).
//
// Run with:
//
//	go run ./examples/sparselu
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/workloads"
)

// params sizes the example's matrix; its test shrinks it under -short.
var params = workloads.SparseLUParams{B: 24, TS: 32, Density: 0.3, Seed: 2017, Compute: true}

func main() {
	if err := run(os.Stdout, params); err != nil {
		fmt.Fprintln(os.Stderr, "sparselu:", err)
		os.Exit(1)
	}
}

// run factorizes the matrix p describes once per variant and prints each
// run to w; RunSparseLU validates every variant.
func run(w io.Writer, p workloads.SparseLUParams) error {
	for _, v := range workloads.SparseLUVariants {
		start := time.Now()
		res, fills, err := workloads.RunSparseLU(workloads.Mode{Workers: 8}, v, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s  wall %-12v  tasks %-5d  fill-in blocks %-4d  GFlop/s %.2f\n",
			v, time.Since(start).Round(time.Microsecond), res.Tasks, fills, res.GFlops())
	}
	fmt.Fprintln(w, "\nall three variants validated against the sequential factorization")
	return nil
}
