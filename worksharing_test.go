package nanos_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	nanos "repro"
	"repro/internal/randtest"
)

// Worksharing against its per-chunk oracle: Taskloop driven with the
// identical spec submits one task per chunk with per-chunk depend entries,
// the shape a worksharing region collapses into one task. The two must be
// observably identical over randomized programs (any grain, width, and
// chunk-cost skew), the region must cost no more than the expansion at one
// worker, and inside a Graph region it must record one node where the
// expansion records one per chunk.

// loop submits spec as one worksharing region or, with taskloop set, as the
// Taskloop expansion of the identical spec.
func loop(tc *nanos.TaskContext, taskloop bool, spec nanos.WorksharingSpec) int {
	if !taskloop {
		return nanos.Worksharing(tc, spec)
	}
	return nanos.Taskloop(tc, nanos.TaskloopSpec{
		Label: spec.Label, Lo: spec.Lo, Hi: spec.Hi, Grain: spec.Grain,
		Deps: spec.Deps, Cost: spec.Cost, Flops: spec.Flops,
		Body: spec.Body,
	})
}

// loopName names the strategy in failure messages.
func loopName(taskloop bool) string {
	if taskloop {
		return "taskloop"
	}
	return "worksharing"
}

// wsDiffProgram runs a randomized chained-region program and returns a
// digest of its observable results. Regions update random sub-ranges of a
// shared array through union InOut entries (per-chunk entries under
// Taskloop), with a per-element cost skew so chunks finish at very
// different times; interleaved reader tasks fold prefix sums into a
// commutative checksum through In entries. Any legal execution order
// produces the same digest, so both strategies must match exactly.
func wsDiffProgram(t *testing.T, taskloop bool, workers int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const elems = 384
	grain := []int64{1, 3, 8, 24, 96}[rng.Intn(5)]
	rounds := 4 + rng.Intn(5)
	rt := nanos.New(nanos.Config{Workers: workers, Debug: true})
	data := rt.NewData("a", elems, 8)
	arr := make([]int64, elems)
	var checksum atomic.Int64
	err := rt.RunChecked(func(tc *nanos.TaskContext) {
		for round := 0; round < rounds; round++ {
			lo := rng.Int63n(elems - 1)
			hi := lo + 1 + rng.Int63n(elems-lo-1)
			step := int64(round*131 + 17)
			loop(tc, taskloop, nanos.WorksharingSpec{
				Label: fmt.Sprintf("ws%d", round),
				Lo:    lo, Hi: hi, Grain: grain,
				Deps: func(lo, hi int64) []nanos.Dep {
					return []nanos.Dep{nanos.DInOut(data, nanos.Iv(lo, hi))}
				},
				Body: func(_ *nanos.TaskContext, lo, hi int64) {
					for i := lo; i < hi; i++ {
						// Skewed cost: some elements spin, so helpers claim
						// uneven chunk counts and interleavings vary.
						if i%17 == 0 {
							for s := 0; s < 200; s++ {
								arr[i] += 0
							}
						}
						arr[i] = arr[i]*3 + step + i
					}
				},
			})
			if rng.Intn(2) == 0 {
				rlo, rhi := lo, hi
				tc.Submit(nanos.TaskSpec{
					Label: "reader",
					Deps:  []nanos.Dep{nanos.DIn(data, nanos.Iv(rlo, rhi))},
					Body: func(*nanos.TaskContext) {
						var s int64
						for i := rlo; i < rhi; i++ {
							s += arr[i]
						}
						checksum.Add(s)
					},
				})
			}
		}
	})
	if err != nil {
		t.Fatalf("%s w=%d seed=%d: %v", loopName(taskloop), workers, seed, err)
	}
	if ps := rt.WsPoolStats(); ps.Outstanding() != 0 {
		t.Fatalf("%s w=%d seed=%d: %d chunk descriptors outstanding", loopName(taskloop), workers, seed, ps.Outstanding())
	}
	return fmt.Sprintf("arr=%v sum=%d", arr, checksum.Load())
}

// TestWorksharingDifferential drives identical randomized programs through
// worksharing regions and through Taskloop: final array state and reader
// checksums must match exactly for every grain, width, and cost-skew
// combination the generator produces.
func TestWorksharingDifferential(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for _, workers := range []int{1, 4} {
		for _, seed := range randtest.SeedRange(t, 1, int64(seeds)+1) {
			exp := wsDiffProgram(t, true, workers, seed)
			chk := wsDiffProgram(t, false, workers, seed)
			if exp != chk {
				t.Fatalf("w=%d seed=%d diverged:\n  taskloop:    %s\n  worksharing: %s", workers, seed, exp, chk)
			}
		}
	}
}

// TestWorksharingW1Parity gates the acceptance bound at one worker: with
// nobody to invite, a worksharing region is one task plus a serial drain
// loop, so it must cost no more than 1.5x the per-chunk Taskloop expansion
// it replaces (in practice it is far cheaper; the bound has slack for CI
// noise). Best-of-5 wall time over a fine-grained region.
func TestWorksharingW1Parity(t *testing.T) {
	const iters, grain, regions = 1 << 15, 8, 6
	run := func(taskloop bool) time.Duration {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 5; rep++ {
			rt := nanos.New(nanos.Config{Workers: 1})
			var sink atomic.Int64
			start := time.Now()
			rt.Run(func(tc *nanos.TaskContext) {
				for reg := 0; reg < regions; reg++ {
					loop(tc, taskloop, nanos.WorksharingSpec{
						Lo: 0, Hi: iters, Grain: grain,
						Body: func(_ *nanos.TaskContext, lo, hi int64) {
							sink.Add(hi - lo)
						},
					})
					tc.Taskwait()
				}
			})
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	expand := run(true)
	chunked := run(false)
	t.Logf("w=1, %d iters / grain %d: taskloop %v, worksharing %v (%.2fx)",
		iters, grain, expand, chunked, float64(chunked)/float64(expand))
	if float64(chunked) > 1.5*float64(expand) {
		t.Errorf("worksharing %v exceeds 1.5x taskloop %v at one worker", chunked, expand)
	}
}

// TestWorksharingReplayVsTaskloop: inside a Graph region a worksharing
// loop is one submission carrying the union entries, so it records as a
// single node where Taskloop records one per chunk. Both regions replay on
// every later iteration and produce the same final state.
func TestWorksharingReplayVsTaskloop(t *testing.T) {
	const elems, grain, iters = 256, 8, 5
	run := func(taskloop bool) ([]int64, *nanos.Runtime) {
		rt := nanos.New(nanos.Config{Workers: 4, Replay: nanos.ReplayOn, Debug: true})
		data := rt.NewData("a", elems, 8)
		arr := make([]int64, elems)
		err := rt.RunChecked(func(tc *nanos.TaskContext) {
			for it := 0; it < iters; it++ {
				step := int64(it*7 + 1)
				tc.Graph("ws", func(tc *nanos.TaskContext) {
					loop(tc, taskloop, nanos.WorksharingSpec{
						Lo: 0, Hi: elems, Grain: grain,
						Deps: func(lo, hi int64) []nanos.Dep {
							return []nanos.Dep{nanos.DInOut(data, nanos.Iv(lo, hi))}
						},
						Body: func(_ *nanos.TaskContext, lo, hi int64) {
							for i := lo; i < hi; i++ {
								arr[i] = arr[i]*2 + step
							}
						},
					})
					tc.Submit(nanos.TaskSpec{
						Label: "tail",
						Deps:  []nanos.Dep{nanos.DInOut(data, nanos.Iv(0, elems))},
						Body: func(*nanos.TaskContext) {
							for i := range arr {
								arr[i]++
							}
						},
					})
				})
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", loopName(taskloop), err)
		}
		if st := rt.ReplayStats(); st.Records != 1 || st.Replays != iters-1 {
			t.Fatalf("%s: %d records / %d replays over %d iterations, want 1 / %d (%+v)",
				loopName(taskloop), st.Records, st.Replays, iters, iters-1, st)
		}
		return arr, rt
	}
	expArr, expRT := run(true)
	chkArr, chkRT := run(false)
	for i := range expArr {
		if expArr[i] != chkArr[i] {
			t.Fatalf("elem %d diverged under replay: taskloop %d, worksharing %d", i, expArr[i], chkArr[i])
		}
	}
	// One node per region instead of one per chunk: the worksharing run
	// submits (chunks-1) fewer tasks per iteration — replayed iterations
	// included, which is the point of fingerprinting the union.
	chunks := int64(elems / grain)
	if diff := expRT.TaskCount() - chkRT.TaskCount(); diff != iters*(chunks-1) {
		t.Errorf("task-count difference %d, want %d (worksharing must be ONE node per region, every iteration)",
			diff, iters*(chunks-1))
	}
}
