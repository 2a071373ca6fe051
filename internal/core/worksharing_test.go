package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mempool"
	"repro/internal/randtest"
	"repro/internal/replay"
	"repro/internal/sched"
)

// Worksharing tests: the chunk-distributed strategy must be observably
// identical to the per-chunk-task expansion over randomized programs
// (identical final state for any grain, width, and chunk-cost skew), must
// cost no more than the expansion at one worker, must record and replay as
// a single graph node, and must leak no chunk descriptors.

// wsSum runs one independent worksharing region that adds every iteration
// index into an atomic accumulator and returns (sum, chunk count).
func wsSum(t *testing.T, cfg Config, lo, hi, grain int64) (int64, int, *Runtime) {
	t.Helper()
	r := New(cfg)
	var sum atomic.Int64
	var n int
	err := r.RunChecked(func(tc *TaskContext) {
		n = tc.Worksharing(WorksharingSpec{
			Lo: lo, Hi: hi, Grain: grain,
			Body: func(tc *TaskContext, lo, hi int64) {
				var s int64
				for i := lo; i < hi; i++ {
					s += i
				}
				sum.Add(s)
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum.Load(), n, r
}

// TestWorksharingBasic: every iteration of [Lo, Hi) executes exactly once
// under the chunked strategy, across widths and grains (including a grain
// larger than the range and a range not divisible by the grain).
func TestWorksharingBasic(t *testing.T) {
	want := func(lo, hi int64) int64 { return (hi - 1 + lo) * (hi - lo) / 2 }
	for _, workers := range []int{1, 2, 4} {
		for _, grain := range []int64{1, 7, 64, 10000} {
			lo, hi := int64(3), int64(4099)
			sum, n, r := wsSum(t, Config{Workers: workers, Debug: true}, lo, hi, grain)
			if sum != want(lo, hi) {
				t.Fatalf("w=%d grain=%d: sum %d, want %d", workers, grain, sum, want(lo, hi))
			}
			wantN := int((hi - lo + grain - 1) / grain)
			if n != wantN {
				t.Fatalf("w=%d grain=%d: %d chunks reported, want %d", workers, grain, n, wantN)
			}
			st := r.WsStats()
			if st.Regions != 1 || st.Chunks != int64(wantN) {
				t.Fatalf("w=%d grain=%d: stats %+v, want 1 region / %d chunks", workers, grain, st, wantN)
			}
			if workers == 1 && st.Announcements != 0 {
				t.Fatalf("w=1 announced %d invitations; a lone worker has nobody to invite", st.Announcements)
			}
			if max := int64(workers - 1); st.Announcements > max {
				t.Fatalf("w=%d announced %d invitations, max %d", workers, st.Announcements, max)
			}
			if ps := r.WsPoolStats(); ps.Outstanding() != 0 {
				t.Fatalf("w=%d grain=%d: %d chunk descriptors outstanding after drain", workers, grain, ps.Outstanding())
			}
		}
	}
}

// TestWorksharingKindResolution pins the strategy resolution: auto is
// chunked in real mode (one task, wsExecute regions counted) and serial
// inside the single task in virtual mode; expand submits one task per
// chunk and never touches the chunk-distributed machinery.
func TestWorksharingKindResolution(t *testing.T) {
	_, _, auto := wsSum(t, Config{Workers: 2}, 0, 256, 16)
	if st := auto.WsStats(); st.Regions != 1 {
		t.Errorf("real-mode auto: %d chunk-distributed regions, want 1 (%+v)", st.Regions, st)
	}
	// Root + one worksharing task.
	if n := auto.TaskCount(); n != 1 {
		t.Errorf("chunked submitted %d tasks, want 1", n)
	}

	_, _, exp := wsSum(t, Config{Workers: 2, WorksharingImpl: WorksharingExpand}, 0, 256, 16)
	if st := exp.WsStats(); st.Regions != 0 {
		t.Errorf("expand ran %d chunk-distributed regions, want 0", st.Regions)
	}
	if n := exp.TaskCount(); n != 16 {
		t.Errorf("expand submitted %d tasks, want 16", n)
	}
	if ps := exp.WsPoolStats(); ps.Gets != 0 {
		t.Errorf("expand drew %d chunk descriptors; the reference must not touch the pool", ps.Gets)
	}

	sum, _, virt := wsSum(t, Config{Workers: 2, Virtual: true}, 0, 256, 16)
	if sum != 255*256/2 {
		t.Errorf("virtual-mode sum %d, want %d", sum, 255*256/2)
	}
	if st := virt.WsStats(); st.Regions != 0 {
		t.Errorf("virtual mode ran %d chunk-distributed regions, want 0 (serial inside the task)", st.Regions)
	}
	for _, k := range []WorksharingKind{WorksharingAuto, WorksharingExpand, WorksharingChunked} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// wsDiffProgram runs a randomized chained-region program and returns a
// digest of its observable results. Regions update random sub-ranges of a
// shared array through union InOut entries (per-chunk entries under
// expand), with a per-element cost skew so chunks finish at very different
// times; interleaved reader tasks fold prefix sums into a commutative
// checksum through In entries. Any legal execution order produces the same
// digest, so chunked and expand must match exactly.
func wsDiffProgram(t *testing.T, kind WorksharingKind, workers int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const elems = 384
	grain := []int64{1, 3, 8, 24, 96}[rng.Intn(5)]
	rounds := 4 + rng.Intn(5)
	r := New(Config{
		Workers:         workers,
		WorksharingImpl: kind,
		Debug:           true,
	})
	data := r.NewData("a", elems, 8)
	arr := make([]int64, elems)
	var checksum atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		for round := 0; round < rounds; round++ {
			lo := rng.Int63n(elems - 1)
			hi := lo + 1 + rng.Int63n(elems-lo-1)
			step := int64(round*131 + 17)
			tc.Worksharing(WorksharingSpec{
				Label: fmt.Sprintf("ws%d", round),
				Lo:    lo, Hi: hi, Grain: grain,
				Deps: func(lo, hi int64) []Dep {
					return []Dep{{Data: data, Type: InOut, Ivs: []Interval{iv(lo, hi)}}}
				},
				Body: func(tc *TaskContext, lo, hi int64) {
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
				tc.Submit(TaskSpec{
					Label: "reader",
					Deps:  []Dep{{Data: data, Type: In, Ivs: []Interval{iv(rlo, rhi)}}},
					Body: func(*TaskContext) {
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
		t.Fatalf("kind=%v w=%d seed=%d: %v", kind, workers, seed, err)
	}
	if ps := r.WsPoolStats(); ps.Outstanding() != 0 {
		t.Fatalf("kind=%v w=%d seed=%d: %d chunk descriptors outstanding", kind, workers, seed, ps.Outstanding())
	}
	return fmt.Sprintf("arr=%v sum=%d", arr, checksum.Load())
}

// TestWorksharingDifferential drives identical randomized programs through
// the chunked strategy and the per-chunk-task expansion: final array state
// and reader checksums must match exactly for every grain, width, and
// cost-skew combination the generator produces.
func TestWorksharingDifferential(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for _, workers := range []int{1, 4} {
		for _, seed := range randtest.SeedRange(t, 1, int64(seeds)+1) {
			exp := wsDiffProgram(t, WorksharingExpand, workers, seed)
			chk := wsDiffProgram(t, WorksharingChunked, workers, seed)
			if exp != chk {
				t.Fatalf("w=%d seed=%d diverged:\n  expand:  %s\n  chunked: %s", workers, seed, exp, chk)
			}
		}
	}
}

// TestWorksharingW1Parity gates the acceptance bound at one worker: with
// nobody to invite, a chunked region is one task plus a serial drain loop,
// so it must cost no more than 1.5x the per-chunk-task expansion it
// replaces (in practice it is far cheaper; the bound has slack for CI
// noise). Best-of-5 wall time over a fine-grained region.
func TestWorksharingW1Parity(t *testing.T) {
	const iters, grain, regions = 1 << 15, 8, 6
	run := func(kind WorksharingKind) time.Duration {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 5; rep++ {
			r := New(Config{Workers: 1, WorksharingImpl: kind})
			var sink atomic.Int64
			start := time.Now()
			r.Run(func(tc *TaskContext) {
				for reg := 0; reg < regions; reg++ {
					tc.Worksharing(WorksharingSpec{
						Lo: 0, Hi: iters, Grain: grain,
						Body: func(tc *TaskContext, lo, hi int64) {
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
	expand := run(WorksharingExpand)
	chunked := run(WorksharingChunked)
	t.Logf("w=1, %d iters / grain %d: expand %v, chunked %v (%.2fx)",
		iters, grain, expand, chunked, float64(chunked)/float64(expand))
	if float64(chunked) > 1.5*float64(expand) {
		t.Errorf("chunked %v exceeds 1.5x expand %v at one worker", chunked, expand)
	}
}

// TestWorksharingReplaySingleNode: inside a Graph region a chunked
// worksharing loop is one submission carrying the union entries, so it
// records as a single node (the expansion records one per chunk) and the
// region replays on every later iteration — while producing the same final
// state as the expansion.
func TestWorksharingReplaySingleNode(t *testing.T) {
	const elems, grain, iters = 256, 8, 5
	run := func(kind WorksharingKind) ([]int64, *Runtime) {
		r := New(Config{Workers: 4, WorksharingImpl: kind, Replay: replay.KindOn, Debug: true})
		data := r.NewData("a", elems, 8)
		arr := make([]int64, elems)
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < iters; it++ {
				step := int64(it*7 + 1)
				tc.Graph("ws", func(tc *TaskContext) {
					tc.Worksharing(WorksharingSpec{
						Lo: 0, Hi: elems, Grain: grain,
						Deps: func(lo, hi int64) []Dep {
							return []Dep{{Data: data, Type: InOut, Ivs: []Interval{iv(lo, hi)}}}
						},
						Body: func(tc *TaskContext, lo, hi int64) {
							for i := lo; i < hi; i++ {
								arr[i] = arr[i]*2 + step
							}
						},
					})
					tc.Submit(TaskSpec{
						Label: "tail",
						Deps:  []Dep{{Data: data, Type: InOut, Ivs: []Interval{iv(0, elems)}}},
						Body: func(*TaskContext) {
							for i := range arr {
								arr[i]++
							}
						},
					})
				})
			}
		})
		if err != nil {
			t.Fatalf("kind=%v: %v", kind, err)
		}
		st := r.ReplayStats()
		if st.Records != 1 || st.Replays != iters-1 {
			t.Fatalf("kind=%v: %d records / %d replays over %d iterations, want 1 / %d (%+v)",
				kind, st.Records, st.Replays, iters, iters-1, st)
		}
		return arr, r
	}
	expArr, expRT := run(WorksharingExpand)
	chkArr, chkRT := run(WorksharingChunked)
	for i := range expArr {
		if expArr[i] != chkArr[i] {
			t.Fatalf("elem %d diverged under replay: expand %d, chunked %d", i, expArr[i], chkArr[i])
		}
	}
	// One node per region instead of one per chunk: the chunked run
	// submits (chunks-1) fewer tasks per iteration — replayed iterations
	// included, which is the point of fingerprinting the union.
	chunks := int64(elems / grain)
	if diff := expRT.TaskCount() - chkRT.TaskCount(); diff != iters*(chunks-1) {
		t.Errorf("task-count difference %d, want %d (chunked must be ONE node per region, every iteration)",
			diff, iters*(chunks-1))
	}
	if st := chkRT.WsStats(); st.Regions != iters {
		t.Errorf("%d chunk-distributed regions, want %d (replayed iterations must still distribute)", st.Regions, iters)
	}
}

// TestWorksharingTaskwaitComposition: a taskwait covering a worksharing
// region must not resolve until every helper has left the region, on both
// pools — the parked waiter wakes off the region's last hold release.
func TestWorksharingTaskwaitComposition(t *testing.T) {
	for _, policy := range []sched.Policy{sched.FIFO, sched.LIFO} {
		r := New(Config{Workers: 4, Policy: policy, Debug: true})
		var sum atomic.Int64
		var observed int64 = -1
		err := r.RunChecked(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "parent", Body: func(tc *TaskContext) {
				for round := 0; round < 8; round++ {
					tc.Worksharing(WorksharingSpec{
						Lo: 0, Hi: 2048, Grain: 16,
						Body: func(tc *TaskContext, lo, hi int64) {
							sum.Add(hi - lo)
						},
					})
					tc.Taskwait()
					// The wait covers the whole region: every chunk of every
					// round so far must have landed.
					if got, want := sum.Load(), int64(2048*(round+1)); got != want {
						observed = got
						return
					}
				}
			}})
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if observed >= 0 {
			t.Fatalf("%v: taskwait resolved with %d iterations done; the region escaped the wait", policy, observed)
		}
		if got := sum.Load(); got != 8*2048 {
			t.Fatalf("%v: total %d, want %d", policy, got, 8*2048)
		}
	}
}

// TestWorksharingStressRace combines worksharing with every composing
// subsystem — stealing pool, pooled memory, bounded throttle window,
// replayed graph regions, blocking taskwaits, nested parent tasks —
// under churn. Run with -race this is the concurrency-safety net for the
// announce-hold protocol.
func TestWorksharingStressRace(t *testing.T) {
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		r := New(Config{
			Workers:           4,
			MemPool:           mempool.KindPooled,
			ThrottleOpenTasks: 8,
			Replay:            replay.KindOn,
			Debug:             true,
		})
		const elems = 512
		data := r.NewData("a", elems, 8)
		arr := make([]int64, elems)
		var loose atomic.Int64
		err := r.RunChecked(func(tc *TaskContext) {
			// Replayed region stream: one worksharing node per iteration.
			for rep := 0; rep < 6; rep++ {
				step := int64(rep + 1)
				tc.Graph("g", func(tc *TaskContext) {
					tc.Worksharing(WorksharingSpec{
						Lo: 0, Hi: elems, Grain: 8,
						Deps: func(lo, hi int64) []Dep {
							return []Dep{{Data: data, Type: InOut, Ivs: []Interval{iv(lo, hi)}}}
						},
						Body: func(tc *TaskContext, lo, hi int64) {
							for i := lo; i < hi; i++ {
								arr[i] += step
							}
						},
					})
				})
			}
			// Nested parents: each submits dependency-free regions through
			// the bounded window and taskwaits on them (help, then park),
			// racing the graph stream above for workers.
			for p := 0; p < 4; p++ {
				tc.Submit(TaskSpec{Label: "parent", Body: func(tc *TaskContext) {
					for round := 0; round < 5; round++ {
						tc.Worksharing(WorksharingSpec{
							Lo: 0, Hi: 1024, Grain: 8,
							Body: func(tc *TaskContext, lo, hi int64) {
								loose.Add(hi - lo)
							},
						})
						tc.Taskwait()
					}
				}})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range arr {
			if arr[i] != 21 { // 1+2+...+6
				t.Fatalf("elem %d = %d, want 21", i, arr[i])
			}
		}
		if got := loose.Load(); got != 4*5*1024 {
			t.Fatalf("loose chunks covered %d iterations, want %d", got, 4*5*1024)
		}
		if ps := r.WsPoolStats(); ps.Outstanding() != 0 {
			t.Fatalf("%d chunk descriptors outstanding after drain", ps.Outstanding())
		}
	}
}

// TestWorksharingEdgeCases covers the degenerate shapes: empty and
// inverted ranges submit nothing; a final (included) parent runs the
// chunks serially inline; spec validation panics; and a panic in a chunk
// body — owner's or helper's — surfaces as the run's TaskError without
// wedging the region's completion countdown.
func TestWorksharingEdgeCases(t *testing.T) {
	r := New(Config{Workers: 2, Debug: true})
	err := r.RunChecked(func(tc *TaskContext) {
		if n := tc.Worksharing(WorksharingSpec{Lo: 5, Hi: 5, Grain: 4, Body: func(*TaskContext, int64, int64) {}}); n != 0 {
			t.Errorf("empty range submitted %d chunks", n)
		}
		if n := tc.Worksharing(WorksharingSpec{Lo: 9, Hi: 2, Grain: 4, Body: func(*TaskContext, int64, int64) {}}); n != 0 {
			t.Errorf("inverted range submitted %d chunks", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.TaskCount(); n != 0 {
		t.Errorf("degenerate ranges submitted %d tasks", n)
	}

	// Final parent: included children run inline, so the region must take
	// the serial path (announce-holds cannot ride a task that completes
	// the moment its body returns).
	fr := New(Config{Workers: 2, Debug: true})
	var calls atomic.Int64
	var sum atomic.Int64
	err = fr.RunChecked(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "final", Final: true, Body: func(tc *TaskContext) {
			tc.Worksharing(WorksharingSpec{
				Lo: 0, Hi: 100, Grain: 7,
				Body: func(tc *TaskContext, lo, hi int64) {
					calls.Add(1)
					sum.Add(hi - lo)
				},
			})
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 100 || calls.Load() != 15 {
		t.Errorf("final-context region: %d iterations in %d chunks, want 100 in 15", sum.Load(), calls.Load())
	}
	if st := fr.WsStats(); st.Regions != 0 {
		t.Errorf("final-context region went chunk-distributed (%+v)", st)
	}

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	pr := New(Config{Workers: 1})
	pr.Run(func(tc *TaskContext) {
		mustPanic("Grain=0", func() {
			tc.Worksharing(WorksharingSpec{Lo: 0, Hi: 8, Grain: 0, Body: func(*TaskContext, int64, int64) {}})
		})
		mustPanic("nil Body", func() {
			tc.Worksharing(WorksharingSpec{Lo: 0, Hi: 8, Grain: 2})
		})
	})

	// A chunk panic at width 4 lands on the owner or a helper depending on
	// who claims the poisoned chunk; both must convert to the recorded
	// error and drain cleanly. Loop to hit both paths.
	for rep := 0; rep < 8; rep++ {
		er := New(Config{Workers: 4, Debug: true})
		err := er.RunChecked(func(tc *TaskContext) {
			tc.Worksharing(WorksharingSpec{
				Label: "poisoned",
				Lo:    0, Hi: 4096, Grain: 4,
				Body: func(tc *TaskContext, lo, hi int64) {
					if lo == 2048 {
						panic("chunk boom")
					}
				},
			})
		})
		te, ok := err.(*TaskError)
		if !ok {
			t.Fatalf("rep %d: got %v, want a TaskError", rep, err)
		}
		if te.Label != "poisoned" || te.Value != "chunk boom" {
			t.Fatalf("rep %d: wrong error contents: %+v", rep, te)
		}
		if ps := er.WsPoolStats(); ps.Outstanding() != 0 {
			t.Fatalf("rep %d: %d descriptors outstanding after a failed run", rep, ps.Outstanding())
		}
	}
}

// TestWorksharingVirtualCost: in virtual mode the region is one task whose
// cost defaults to the iteration count (or the Cost callback's union
// value), so the simulated makespan reflects the whole loop.
func TestWorksharingVirtualCost(t *testing.T) {
	r := New(Config{Workers: 4, Virtual: true})
	var ran atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		tc.Worksharing(WorksharingSpec{
			Lo: 0, Hi: 1000, Grain: 100,
			Cost:  func(lo, hi int64) int64 { return (hi - lo) * 2 },
			Flops: func(lo, hi int64) int64 { return hi - lo },
			Body:  func(tc *TaskContext, lo, hi int64) { ran.Add(hi - lo) },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1000 {
		t.Fatalf("virtual region ran %d iterations, want 1000", ran.Load())
	}
	if got := r.Flops(); got != 1000 {
		t.Fatalf("accounted %d flops, want 1000 (union Flops callback)", got)
	}
}
