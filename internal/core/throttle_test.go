package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/deps"
	"repro/internal/throttle"
)

// throttleImpls are the window implementations every throttle test runs
// under: the mutex+cond reference and the sharded token bucket.
var throttleImpls = []throttle.Kind{throttle.KindLocked, throttle.KindSharded}

// TestThrottleNoDeadlockWithWeakNesting is a regression test: the throttle
// window must count only dependency-ready tasks. If it counted every
// instantiated task, this program could deadlock — a child of the second
// weak outer task waits on fragments that release only when the first
// outer task's body finishes, while that body is blocked in the throttle
// because the waiting child fills the window.
func TestThrottleNoDeadlockWithWeakNesting(t *testing.T) {
	for _, impl := range throttleImpls {
		t.Run(impl.String(), func(t *testing.T) {
			for iter := 0; iter < 20; iter++ {
				for _, workers := range []int{1, 2, 4} {
					rt := New(Config{Workers: workers, ThrottleOpenTasks: 1, ThrottleImpl: impl})
					d := rt.NewData("x", 100, 8)
					var ran atomic.Int64
					outer := func(lbl string) TaskSpec {
						return TaskSpec{
							Label:    lbl,
							WeakWait: true,
							Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: 0, Hi: 100}}}},
							Body: func(tc *TaskContext) {
								for i := int64(0); i < 4; i++ {
									tc.Submit(TaskSpec{
										Label: lbl + "-leaf",
										Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: i * 25, Hi: (i + 1) * 25}}}},
										Body:  func(*TaskContext) { ran.Add(1) },
									})
								}
							},
						}
					}
					rt.Run(func(tc *TaskContext) {
						tc.Submit(outer("t1"))
						tc.Submit(outer("t2"))
					})
					if got := ran.Load(); got != 8 {
						t.Fatalf("workers=%d: ran %d leaves, want 8", workers, got)
					}
				}
			}
		})
	}
}

// TestThrottleWindowBoundsReadyBacklog checks the throttle actually bounds
// the ready backlog: with a window of 4 and slow chain-free tasks, the
// scheduler queue length can never exceed the window.
func TestThrottleWindowBoundsReadyBacklog(t *testing.T) {
	const window = 4
	for _, impl := range throttleImpls {
		t.Run(impl.String(), func(t *testing.T) {
			rt := New(Config{Workers: 2, ThrottleOpenTasks: window, ThrottleImpl: impl})
			var maxOpen atomic.Int64
			rt.Run(func(tc *TaskContext) {
				for i := 0; i < 200; i++ {
					tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {
						if o := rt.taskCounts().open; o > maxOpen.Load() {
							maxOpen.Store(o)
						}
					}})
				}
			})
			// The submitter may overshoot by one (check-then-submit), and the
			// two running tasks are already out of the window.
			if maxOpen.Load() > window+1 {
				t.Fatalf("ready backlog reached %d, want <= %d", maxOpen.Load(), window+1)
			}
		})
	}
}

// TestThrottleImplAutoResolution checks the kind plumbing: Auto builds the
// sharded window in real mode, virtual mode builds none, and an
// unthrottled runtime builds none.
func TestThrottleImplAutoResolution(t *testing.T) {
	if rt := New(Config{Workers: 2, ThrottleOpenTasks: 8}); rt.thr == nil {
		t.Error("throttled real-mode runtime has no window")
	} else if rt.thr.Limit() != 8 {
		t.Errorf("window limit = %d, want 8", rt.thr.Limit())
	}
	if rt := New(Config{Workers: 2, ThrottleOpenTasks: 8, Virtual: true}); rt.thr != nil {
		t.Error("virtual-mode runtime built a throttle window")
	}
	if rt := New(Config{Workers: 2}); rt.thr != nil {
		t.Error("unthrottled runtime built a throttle window")
	}
}

// TestThrottleStatsExposed checks the runtime surfaces the window's
// diagnostic counters: a contended sharded window must report borrows (the
// token-bucket batch refills that amortize the global balance traffic).
func TestThrottleStatsExposed(t *testing.T) {
	rt := New(Config{Workers: 4, ThrottleOpenTasks: 64, ThrottleImpl: throttle.KindSharded})
	rt.Run(func(tc *TaskContext) {
		for i := 0; i < 500; i++ {
			tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {}})
		}
	})
	if st := rt.ThrottleStats(); st.Borrows == 0 {
		t.Errorf("sharded window reported no borrows: %+v", st)
	}
	if st := New(Config{Workers: 2}).ThrottleStats(); st != (throttle.Stats{}) {
		t.Errorf("unthrottled runtime reported non-zero throttle stats: %+v", st)
	}
}

// TestThrottleShardedStackStress combines every sharded subsystem — the
// per-data-object dependency engine, the work-stealing ready pool, and the
// token-bucket throttle — under a tight window with nested weak tasks,
// dependency chains (deferred children exercising the Refund path), and
// in-body taskwaits (worker-identity churn across the throttle's token
// round-trip). Run with -race this is the integration stress for the
// sharded runtime stack.
func TestThrottleShardedStackStress(t *testing.T) {
	iters, outers := 30, 8
	if testing.Short() {
		iters, outers = 6, 6
	}
	for iter := 0; iter < iters; iter++ {
		for _, window := range []int{1, 3, 16} {
			rt := New(Config{
				Workers:           4,
				ThrottleOpenTasks: window,
				ThrottleImpl:      throttle.KindSharded,
				DepEngine:         deps.EngineSharded,
				Debug:             true,
			})
			d := rt.NewData("x", int64(outers*64), 8)
			var ran atomic.Int64
			err := rt.RunChecked(func(tc *TaskContext) {
				for o := 0; o < outers; o++ {
					lo := int64(o * 64)
					tc.Submit(TaskSpec{
						Label:    "outer",
						WeakWait: true,
						Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: lo, Hi: lo + 64}}}},
						Body: func(tc *TaskContext) {
							// A serial chain: every leaf after the first is
							// deferred at submit (Refund path), then readied
							// by a completion cascade (overdraw path).
							for i := int64(0); i < 6; i++ {
								tc.Submit(TaskSpec{
									Label: "leaf",
									Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: lo, Hi: lo + 64}}}},
									Body:  func(*TaskContext) { ran.Add(1) },
								})
							}
							if tc.Depth()%2 == 1 {
								tc.Taskwait()
							}
						},
					})
				}
			})
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			if got, want := ran.Load(), int64(outers*6); got != want {
				t.Fatalf("window=%d: ran %d leaves, want %d", window, got, want)
			}
			if st := rt.ThrottleStats(); window == 1 && st.Parks == 0 && iter == 0 {
				t.Logf("window=1 run recorded no parks (timing-dependent)")
			}
			ran.Store(0)
		}
	}
}
