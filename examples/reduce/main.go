// Reduce example: the task-reduction extension (the paper's future-work
// direction §X integrated with nesting and weak dependencies).
//
// A dot product is computed by reduction tasks that all accumulate into one
// scalar concurrently; the tasks are created by several nested generators,
// each covering the accumulator with a weak reduction access, so the
// generators run (and instantiate) in parallel too. A final reader task
// observes the completed sum. Compare the serialized alternative: without
// reductions, the accumulations would need inout accesses and would chain.
//
// Run with:
//
//	go run ./examples/reduce
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	nanos "repro"
)

const (
	n      = 1 << 20
	block  = 1 << 14
	chunks = 4 // parallel generators
)

// dot computes the dot product with reduction tasks, or with the inout
// chain they replace, and checks the result.
func dot(reduction bool) (time.Duration, float64, error) {
	rt := nanos.New(nanos.Config{Workers: 8})
	xd := rt.NewData("x", n, 8)
	acc := rt.NewData("acc", 1, 8)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 0.5
		y[i] = 2.0
	}
	var sumBits atomic.Uint64 // float64 accumulator via CAS

	add := func(v float64) {
		for {
			old := sumBits.Load()
			nv := atomicAdd(old, v)
			if sumBits.CompareAndSwap(old, nv) {
				return
			}
		}
	}

	accDep := func() nanos.Dep {
		if reduction {
			return nanos.DRed(acc, nanos.Iv(0, 1))
		}
		return nanos.DInOut(acc, nanos.Iv(0, 1)) // pre-extension: serial chain
	}

	var result float64
	start := time.Now()
	rt.Run(func(tc *nanos.TaskContext) {
		per := int64(n / chunks)
		for c := int64(0); c < chunks; c++ {
			lo, hi := c*per, (c+1)*per
			tc.Submit(nanos.TaskSpec{
				Label:    "generator",
				WeakWait: true,
				Deps: []nanos.Dep{
					nanos.DWeakIn(xd, nanos.Iv(lo, hi)),
					nanos.DWeakRed(acc, nanos.Iv(0, 1)),
				},
				Body: func(tc *nanos.TaskContext) {
					for s := lo; s < hi; s += block {
						s := s
						e := min(s+block, hi)
						tc.Submit(nanos.TaskSpec{
							Label: "dot-block",
							Flops: 2 * (e - s),
							Deps: []nanos.Dep{
								nanos.DIn(xd, nanos.Iv(s, e)),
								accDep(),
							},
							Body: func(*nanos.TaskContext) {
								var part float64
								for i := s; i < e; i++ {
									part += x[i] * y[i]
								}
								add(part)
							},
						})
					}
				},
			})
		}
		tc.Submit(nanos.TaskSpec{
			Label: "read",
			Deps:  []nanos.Dep{nanos.DIn(acc, nanos.Iv(0, 1))},
			Body: func(*nanos.TaskContext) {
				result = fromBits(sumBits.Load())
			},
		})
	})
	el := time.Since(start)
	want := float64(n) * 0.5 * 2.0
	if result != want {
		return el, result, fmt.Errorf("dot = %v, want %v", result, want)
	}
	return el, result, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reduce:", err)
		os.Exit(1)
	}
}

// run times both formulations and prints them to w.
func run(w io.Writer) error {
	serialT, _, err := dot(false)
	if err != nil {
		return err
	}
	redT, sum, err := dot(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dot product of %d elements, %d-element blocks, 8 workers (result %.0f, validated)\n", n, block, sum)
	fmt.Fprintf(w, "  inout chain (pre-extension):   %8v\n", serialT.Round(time.Microsecond))
	fmt.Fprintf(w, "  reduction group (this paper's §X direction): %8v\n", redT.Round(time.Microsecond))
	return nil
}

// atomicAdd adds v to the float64 stored in bits.
func atomicAdd(bits uint64, v float64) uint64 {
	return math.Float64bits(math.Float64frombits(bits) + v)
}

func fromBits(b uint64) float64 { return math.Float64frombits(b) }
