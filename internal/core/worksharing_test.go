package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/replay"
	"repro/internal/sched"
)

// Worksharing tests: a region must run every iteration exactly once, record
// and replay as a single graph node, compose with Taskwait, and leak no
// chunk descriptors. Its per-chunk oracle is nanos.Taskloop: the root
// package's worksharing tests check the two observably identical over
// randomized programs and the cost bound at one worker.

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

// TestWorksharingBasic: every iteration of [Lo, Hi) executes exactly once,
// in one submitted task, across widths and grains (including a grain
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
			if tasks := r.TaskCount(); tasks != 1 {
				t.Fatalf("w=%d grain=%d: %d tasks submitted, want 1", workers, grain, tasks)
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

// TestWorksharingReplaySingleNode: inside a Graph region a worksharing
// loop is one submission carrying the union entries, so it records as a
// single node and the region replays on every later iteration, still
// distributing its chunks and producing the sequential result. The root
// package's TestWorksharingReplayVsTaskloop compares the same program
// against the per-chunk Taskloop expansion.
func TestWorksharingReplaySingleNode(t *testing.T) {
	const elems, grain, iters = 256, 8, 5
	r := New(Config{Workers: 4, Replay: replay.KindOn, Debug: true})
	data := r.NewData("a", elems, 8)
	arr := make([]int64, elems)
	want := make([]int64, elems)
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < iters; it++ {
			step := int64(it*7 + 1)
			for i := range want {
				want[i] = want[i]*2 + step + 1
			}
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
		t.Fatal(err)
	}
	if st := r.ReplayStats(); st.Records != 1 || st.Replays != iters-1 {
		t.Fatalf("%d records / %d replays over %d iterations, want 1 / %d (%+v)",
			st.Records, st.Replays, iters, iters-1, st)
	}
	for i := range arr {
		if arr[i] != want[i] {
			t.Fatalf("elem %d = %d under replay, want %d", i, arr[i], want[i])
		}
	}
	// One worksharing task and one tail task per iteration, replayed
	// iterations included: the union is the fingerprint.
	if n := r.TaskCount(); n != 2*iters {
		t.Errorf("%d tasks submitted, want %d (ONE node per region, every iteration)", n, 2*iters)
	}
	if st := r.WsStats(); st.Regions != iters {
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
	if n := r.TaskCount(); n != 1 {
		t.Fatalf("virtual region submitted %d tasks, want 1", n)
	}
	if st := r.WsStats(); st.Regions != 0 {
		t.Fatalf("virtual mode ran %d chunk-distributed regions, want 0 (serial inside the task)", st.Regions)
	}
}
