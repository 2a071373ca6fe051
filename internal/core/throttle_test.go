package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/throttle"
)

// newWithEngine builds a runtime from cfg and swaps in a dependency engine
// of the given kind and memory mode, so the runtime-level tests also run on
// the references New never builds: the single-mutex engine and the
// allocate-always memory mode. The reference mode drops the Task free
// lists and worker scratch too, so nothing in the run recycles.
func newWithEngine(cfg Config, kind deps.EngineKind, mem mempool.Kind) *Runtime {
	rt := New(cfg)
	rt.eng = deps.NewEngineMem(kind, cfg.Observer, mem)
	if mem == mempool.KindReference {
		rt.tasksG, rt.ws = nil, nil
	}
	return rt
}

// TestThrottleNoDeadlockWithWeakNesting is a regression test: the throttle
// window must count only dependency-ready tasks. If it counted every
// instantiated task, this program could deadlock — a child of the second
// weak outer task waits on fragments that release only when the first
// outer task's body finishes, while that body is blocked in the throttle
// because the waiting child fills the window.
func TestThrottleNoDeadlockWithWeakNesting(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		for _, workers := range []int{1, 2, 4} {
			rt := New(Config{Workers: workers, ThrottleOpenTasks: 1})
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
}

// TestThrottleWindowBoundsReadyBacklog checks the throttle actually bounds
// the ready backlog across worker counts and window sizes. The root and
// W-1 submitter tasks each submit slow chain-free leaves, so at most W
// bodies reserve at once and the window may overshoot by one slot per
// extra reserver (check-then-enter): occupancy, sampled after every
// submission and in every leaf, must stay within window + W - 1.
func TestThrottleWindowBoundsReadyBacklog(t *testing.T) {
	const perSubmitter = 60
	for _, workers := range []int{1, 2, 4, 8} {
		for _, window := range []int{1, 4, 64} {
			t.Run(fmt.Sprintf("w=%d/window=%d", workers, window), func(t *testing.T) {
				rt := New(Config{Workers: workers, ThrottleOpenTasks: window})
				var maxOpen, ran atomic.Int64
				sample := func() {
					if o := rt.thr.Open(); o > maxOpen.Load() {
						maxOpen.Store(o)
					}
				}
				leaf := TaskSpec{Label: "leaf", Body: func(*TaskContext) {
					sample()
					for deadline := time.Now().Add(2 * time.Microsecond); time.Now().Before(deadline); {
					}
					ran.Add(1)
				}}
				submitLeaves := func(tc *TaskContext) {
					for i := 0; i < perSubmitter; i++ {
						tc.Submit(leaf)
						sample()
					}
				}
				rt.Run(func(tc *TaskContext) {
					for s := 1; s < workers; s++ {
						tc.Submit(TaskSpec{Label: "submitter", Body: submitLeaves})
					}
					submitLeaves(tc)
				})
				if got, want := ran.Load(), int64(workers*perSubmitter); got != want {
					t.Fatalf("ran %d leaves, want %d", got, want)
				}
				if bound := int64(window + workers - 1); maxOpen.Load() > bound {
					t.Fatalf("ready backlog reached %d, want <= %d", maxOpen.Load(), bound)
				}
			})
		}
	}
}

// TestThrottleWindowResolution checks the window plumbing: a throttled
// real-mode runtime builds the window with the configured limit, virtual
// mode builds none, and an unthrottled runtime builds none.
func TestThrottleWindowResolution(t *testing.T) {
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
// diagnostic counters: one worker submitting into a one-slot window holds
// the only token while it submits, so its second submission must park.
func TestThrottleStatsExposed(t *testing.T) {
	rt := New(Config{Workers: 1, ThrottleOpenTasks: 1})
	rt.Run(func(tc *TaskContext) {
		for i := 0; i < 50; i++ {
			tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {}})
		}
	})
	if st := rt.ThrottleStats(); st.Parks == 0 {
		t.Errorf("a full window reported no parks: %+v", st)
	}
	if st := New(Config{Workers: 2}).ThrottleStats(); st != (throttle.Stats{}) {
		t.Errorf("unthrottled runtime reported non-zero throttle stats: %+v", st)
	}
}

// TestThrottleDebugCatchesUnmatchedEntry: the Debug end-of-run check must
// report a window whose entries and starts do not match — an entry never
// started (a slot lost for good) or a start with no entry.
func TestThrottleDebugCatchesUnmatchedEntry(t *testing.T) {
	for _, c := range []struct {
		name  string
		delta int64
	}{{"unstarted-entry", 1}, {"double-start", -1}} {
		t.Run(c.name, func(t *testing.T) {
			rt := New(Config{Workers: 2, ThrottleOpenTasks: 4, Debug: true})
			err := rt.RunChecked(func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {}})
				if c.delta > 0 {
					rt.thr.Entered(c.delta)
				} else {
					rt.thr.Started(tc.worker)
				}
			})
			want := fmt.Sprintf("throttle window still reports %d open tasks", c.delta)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("RunChecked = %v, want an error containing %q", err, want)
			}
		})
	}
}

// TestThrottleStackStress combines the per-data-object dependency engine,
// the work-stealing ready pool, and the throttle window under a tight
// window with nested weak tasks, dependency chains (deferred children that
// enter the window only through a completion cascade), and in-body
// taskwaits (worker-identity churn across the throttle's token
// round-trip). Run with -race this is the integration stress for the
// runtime stack.
func TestThrottleStackStress(t *testing.T) {
	iters, outers := 30, 8
	if testing.Short() {
		iters, outers = 6, 6
	}
	for iter := 0; iter < iters; iter++ {
		for _, window := range []int{1, 3, 16} {
			rt := New(Config{
				Workers:           4,
				ThrottleOpenTasks: window,
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
							// deferred at submit, then readied by a
							// completion cascade (overdraw path).
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
