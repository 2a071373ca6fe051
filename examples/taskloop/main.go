// Taskloop example: a three-stage vector normalization built from chunked
// loops and a task reduction, run twice — once with the Taskloop helper
// (OpenMP's taskloop construct extended with per-chunk depend entries,
// one task per chunk) and once with Worksharing (one dependency-carrying
// task per stage, chunks claimed inside its body) — to compare the two
// chunked-loop constructs on the same program.
//
//	stage 1  fill chunks of x                    depend(out: chunk)
//	         accumulate |x|² per chunk           depend(reduction: sum)
//	stage 2  norm = sqrt(sum)                    depend(in: sum) depend(out: norm)
//	stage 3  x[chunk] /= norm                    depend(in: norm) depend(inout: chunk)
//
// No taskwait appears between the stages: each stage-3 chunk starts as soon
// as the norm is ready, and the norm as soon as every reduction
// contribution arrived. Chunks of stage 1 and stage 3 for different ranges
// overlap freely under Taskloop; under Worksharing each stage is one task
// with union dependencies, so the stages order as wholes (coarser
// dependencies, but the whole pipeline pays 3 tasks instead of 2×chunks+1
// — worth it when chunks are this fine).
//
// Run with:
//
//	go run ./examples/taskloop
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	nanos "repro"
)

const (
	n     = 1 << 22
	grain = 1 << 16
)

// normalize fills x, computes its 2-norm through a task reduction, and
// scales x by it, using either one task per chunk (Taskloop) or one
// chunk-distributed task per stage (Worksharing). It returns the wall
// time and the number of tasks executed.
func normalize(x []float64, worksharing bool) (time.Duration, int64) {
	var (
		sumMu sync.Mutex
		sum   float64
		norm  float64
	)

	rt := nanos.New(nanos.Config{Workers: 8})
	xd := rt.NewData("x", n, 8)
	// Scalar cells for the reduction result and the norm.
	sd := rt.NewData("sum", 1, 8)
	nd := rt.NewData("norm", 1, 8)

	fillBody := func(_ *nanos.TaskContext, lo, hi int64) {
		var local float64
		for i := lo; i < hi; i++ {
			x[i] = math.Sin(float64(i))
			local += x[i] * x[i]
		}
		sumMu.Lock()
		sum += local
		sumMu.Unlock()
	}
	scaleBody := func(_ *nanos.TaskContext, lo, hi int64) {
		for i := lo; i < hi; i++ {
			x[i] /= norm
		}
	}
	// The depend callbacks serve both constructs: Taskloop calls them once
	// per chunk, Worksharing once with the whole range.
	fillDeps := func(lo, hi int64) []nanos.Dep {
		return []nanos.Dep{
			nanos.DOut(xd, nanos.Iv(lo, hi)),
			nanos.DRed(sd, nanos.Iv(0, 1)),
		}
	}
	scaleDeps := func(lo, hi int64) []nanos.Dep {
		return []nanos.Dep{
			nanos.DIn(nd, nanos.Iv(0, 1)),
			nanos.DInOut(xd, nanos.Iv(lo, hi)),
		}
	}
	fillFlops := func(lo, hi int64) int64 { return 3 * (hi - lo) }
	scaleFlops := func(lo, hi int64) int64 { return hi - lo }

	start := time.Now()
	rt.Run(func(tc *nanos.TaskContext) {
		// Stage 1: fill + reduce. The reduction entries form one commuting
		// group; the norm task orders after the whole group.
		if worksharing {
			tc.Worksharing(nanos.WorksharingSpec{
				Label: "fill",
				Lo:    0, Hi: n, Grain: grain,
				Deps: fillDeps, Flops: fillFlops, Body: fillBody,
			})
		} else {
			nanos.Taskloop(tc, nanos.TaskloopSpec{
				Label: "fill",
				Lo:    0, Hi: n, Grain: grain,
				Deps: fillDeps, Flops: fillFlops, Body: fillBody,
			})
		}

		// Stage 2: the norm — an ordinary task under both constructs.
		tc.Submit(nanos.TaskSpec{
			Label: "norm",
			Deps: []nanos.Dep{
				nanos.DIn(sd, nanos.Iv(0, 1)),
				nanos.DOut(nd, nanos.Iv(0, 1)),
			},
			Body: func(*nanos.TaskContext) { norm = math.Sqrt(sum) },
		})

		// Stage 3: scale.
		if worksharing {
			tc.Worksharing(nanos.WorksharingSpec{
				Label: "scale",
				Lo:    0, Hi: n, Grain: grain,
				Deps: scaleDeps, Flops: scaleFlops, Body: scaleBody,
			})
		} else {
			nanos.Taskloop(tc, nanos.TaskloopSpec{
				Label: "scale",
				Lo:    0, Hi: n, Grain: grain,
				Deps: scaleDeps, Flops: scaleFlops, Body: scaleBody,
			})
		}
	})
	return time.Since(start), rt.TaskCount()
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "taskloop:", err)
		os.Exit(1)
	}
}

// run normalizes x under both constructs, prints each run to w, and fails
// when a final ‖x‖² is not 1.
func run(w io.Writer) error {
	x := make([]float64, n)
	fmt.Fprintf(w, "vector normalization, N=%d, chunks of %d, 8 workers\n", n, grain)
	for _, ws := range []bool{false, true} {
		el, tasks := normalize(x, ws)

		// ‖x‖ must now be 1.
		var check float64
		for _, v := range x {
			check += v * v
		}
		name := "taskloop    (task per chunk)"
		if ws {
			name = "worksharing (task per stage)"
		}
		fmt.Fprintf(w, "  %s   wall %10v  tasks %5d  final ‖x‖² %.12f\n",
			name, el.Round(time.Microsecond), tasks, check)
		if math.Abs(check-1) > 1e-9 {
			return fmt.Errorf("%s: final ‖x‖² = %.12f, want 1", name, check)
		}
	}
	return nil
}
