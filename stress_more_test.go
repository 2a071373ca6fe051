package nanos_test

// Extended randomized stress tests: scheduler-configuration matrix, the
// release directive at random points, taskgroups inside random programs,
// failure injection, and virtual-mode determinism. These build on the
// program generator and reference of stress_test.go.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	nanos "repro"
)

// runStressCfg is runStress with a custom runtime configuration.
func runStressCfg(t *testing.T, tasks []*stressTask, cfg nanos.Config) {
	expect, final := stressReference(tasks)
	rt := nanos.New(cfg)
	d := rt.NewData("x", stressUniverse, 8)
	data := make([]int64, stressUniverse)
	var mu sync.Mutex
	var violations []string

	var submit func(tc *nanos.TaskContext, st *stressTask)
	submit = func(tc *nanos.TaskContext, st *stressTask) {
		if st.wrapper {
			submitWrapper(tc, st, submit)
			return
		}
		var deps []nanos.Dep
		if len(st.children) > 0 {
			if st.weak {
				deps = append(deps, nanos.DWeakInOut(d, st.cover))
			} else {
				deps = append(deps, nanos.DInOut(d, st.cover))
			}
		}
		for _, iv := range st.reads {
			deps = append(deps, nanos.DIn(d, iv))
		}
		for _, iv := range st.writes {
			deps = append(deps, nanos.DInOut(d, iv))
		}
		tc.Submit(nanos.TaskSpec{
			Label:    st.label,
			WeakWait: st.weakWait,
			Deps:     deps,
			Body: func(tc *nanos.TaskContext) {
				exp := expect[st.label]
				for _, iv := range st.reads {
					for p := iv.Lo; p < iv.Hi; p++ {
						if got := data[p]; got != exp[p] {
							mu.Lock()
							violations = append(violations,
								fmt.Sprintf("%s read [%d]=%d want %d", st.label, p, got, exp[p]))
							mu.Unlock()
						}
					}
				}
				for _, iv := range st.writes {
					for p := iv.Lo; p < iv.Hi; p++ {
						data[p] = int64(st.seq)
					}
				}
				for _, c := range st.children {
					submit(tc, c)
				}
				if st.weakWait && len(st.children) > 0 {
					// All future work of this task is created; the early
					// release must be equivalent to the weakwait at body
					// exit that would follow anyway.
					tc.Release(nanos.DWeakInOut(d, st.cover))
				}
			},
		})
	}

	rt.Run(func(tc *nanos.TaskContext) {
		for _, st := range tasks {
			submit(tc, st)
		}
	})

	if len(violations) > 0 {
		t.Fatalf("serialization violations (cfg %+v): %v", cfg, violations[:min(4, len(violations))])
	}
	for p := range data {
		if data[p] != final[p] {
			t.Fatalf("final state [%d] = %d, want %d", p, data[p], final[p])
		}
	}
}

// TestStressSchedulerMatrix runs random programs (with the early-release
// directive active in every weakwait task) on the work-stealing pool at
// one, four and eight workers, with and without hand-off (without it,
// every readied successor goes through the pool).
func TestStressSchedulerMatrix(t *testing.T) {
	cases := []struct {
		name string
		cfg  nanos.Config
	}{
		{"stealing", nanos.Config{Workers: 4}},
		{"stealing-nohandoff", nanos.Config{Workers: 4, NoHandoff: true}},
		{"stealing-w1", nanos.Config{Workers: 1}},
		{"stealing-w8", nanos.Config{Workers: 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(5000 + seed))
				prog := buildStressProgram(rng, 2)
				cfg := c.cfg
				cfg.Debug = true
				runStressCfg(t, prog, cfg)
				if t.Failed() {
					t.Fatalf("seed %d failed", seed)
				}
			}
		})
	}
}

// TestStressTaskgroupSubtrees wraps each top-level task's child submissions
// in a taskgroup and asserts the whole subtree completed when the group
// returns.
func TestStressTaskgroupSubtrees(t *testing.T) {
	countTasks := func(st *stressTask) int64 {
		var n int64 = 1
		var walk func(*stressTask)
		walk = func(s *stressTask) {
			for _, c := range s.children {
				n++
				walk(c)
			}
		}
		walk(st)
		return n
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		prog := buildStressProgram(rng, 2)
		rt := nanos.New(nanos.Config{Workers: 4})
		d := rt.NewData("x", stressUniverse, 8)
		var executed atomic.Int64

		var submit func(tc *nanos.TaskContext, st *stressTask)
		submit = func(tc *nanos.TaskContext, st *stressTask) {
			var deps []nanos.Dep
			if len(st.children) > 0 {
				deps = append(deps, nanos.DWeakInOut(d, st.cover))
			}
			for _, iv := range st.writes {
				deps = append(deps, nanos.DInOut(d, iv))
			}
			tc.Submit(nanos.TaskSpec{
				Label: st.label, WeakWait: st.weakWait, Deps: deps,
				Body: func(tc *nanos.TaskContext) {
					executed.Add(1)
					for _, c := range st.children {
						submit(tc, c)
					}
				},
			})
		}

		rt.Run(func(tc *nanos.TaskContext) {
			for _, st := range prog {
				st := st
				want := countTasks(st)
				before := executed.Load()
				tc.Taskgroup(func() { submit(tc, st) })
				if got := executed.Load() - before; got < want {
					t.Fatalf("seed %d: taskgroup returned after %d of %d subtree tasks", seed, got, want)
				}
			}
		})
	}
}

// TestStressFailureInjection panics a random task mid-program and checks
// the runtime returns the failure, skips later bodies, and still drains.
func TestStressFailureInjection(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		prog := buildStressProgram(rng, 2)
		// Count the tasks, pick a victim by pre-order index.
		expect, _ := stressReference(prog)
		victim := 1 + rng.Intn(len(expect))

		rt := nanos.New(nanos.Config{Workers: 4, Debug: true})
		d := rt.NewData("x", stressUniverse, 8)
		var submit func(tc *nanos.TaskContext, st *stressTask)
		submit = func(tc *nanos.TaskContext, st *stressTask) {
			var deps []nanos.Dep
			if len(st.children) > 0 {
				deps = append(deps, nanos.DWeakInOut(d, st.cover))
			}
			for _, iv := range st.writes {
				deps = append(deps, nanos.DInOut(d, iv))
			}
			tc.Submit(nanos.TaskSpec{
				Label: st.label, WeakWait: st.weakWait, Deps: deps,
				Body: func(tc *nanos.TaskContext) {
					if st.seq == victim {
						panic(fmt.Sprintf("injected failure in %s", st.label))
					}
					for _, c := range st.children {
						submit(tc, c)
					}
				},
			})
		}
		err := rt.RunChecked(func(tc *nanos.TaskContext) {
			for _, st := range prog {
				submit(tc, st)
			}
		})
		var te *nanos.TaskError
		if !errors.As(err, &te) {
			t.Fatalf("seed %d: err = %v, want TaskError", seed, err)
		}
	}
}

// TestStressTaskwaitMatrix runs a wait-heavy program over the matrix of
// throttle window (off, 6) × record-and-replay (on, off), with pooled memory and
// Debug's end-of-run leak checks throughout. The program mixes graph
// regions (one replay-eligible region with owner-level waits, one made
// ineligible by member-task waits over nested submissions) with loose
// throttled wait churn. Run with -race this is the concurrency-safety net
// for the help step and the parking path across all layers.
func TestStressTaskwaitMatrix(t *testing.T) {
	iters, inner := 4, 20
	if testing.Short() {
		iters, inner = 2, 8
	}
	type cell struct {
		throttle int
		replay   nanos.ReplayKind
	}
	var cells []cell
	for _, throttle := range []int{0, 6} {
		for _, replay := range []nanos.ReplayKind{nanos.ReplayOn, nanos.ReplayOff} {
			cells = append(cells, cell{throttle, replay})
		}
	}
	for _, c := range cells {
		c := c
		replayOn := c.replay == nanos.ReplayOn
		t.Run(fmt.Sprintf("throttle=%d/replay=%v", c.throttle, replayOn), func(t *testing.T) {
			rt := nanos.New(nanos.Config{
				Workers:           4,
				ThrottleOpenTasks: c.throttle,
				Replay:            c.replay,
				Debug:             true,
			})
			d := rt.NewData("x", stressUniverse, 8)
			var sum atomic.Int64
			err := rt.RunChecked(func(tc *nanos.TaskContext) {
				for it := 0; it < iters; it++ {
					// Replay-eligible region: owner-level waits between
					// submissions; iterations 2+ run from the recording.
					tc.Graph("tw-owner", func(tc *nanos.TaskContext) {
						for b := 0; b < 4; b++ {
							lo, hi := int64(b*16), int64(b*16+16)
							tc.Submit(nanos.TaskSpec{
								Label: "A",
								Deps:  []nanos.Dep{nanos.DInOut(d, nanos.Iv(lo, hi))},
								Body:  func(*nanos.TaskContext) { sum.Add(1) },
							})
							if b == 1 {
								tc.Taskwait()
							}
						}
						tc.Taskwait()
					})
					// Ineligible region: member tasks submit nested children
					// and block on them, so every iteration runs live.
					tc.Graph("tw-member", func(tc *nanos.TaskContext) {
						for m := 0; m < 3; m++ {
							tc.Submit(nanos.TaskSpec{Label: "M", Body: func(tc *nanos.TaskContext) {
								var local atomic.Int64
								for c := 0; c < inner; c++ {
									tc.Submit(nanos.TaskSpec{Label: "inner", Body: func(*nanos.TaskContext) {
										local.Add(1)
										sum.Add(1)
									}})
								}
								tc.Taskwait()
								if got := local.Load(); got != int64(inner) {
									t.Errorf("member wait returned after %d of %d nested children", got, inner)
								}
							}})
						}
					})
					// Loose wait-heavy churn outside any region, throttled.
					for p := 0; p < 6; p++ {
						lo := int64((p % 4) * 16)
						tc.Submit(nanos.TaskSpec{Label: "P", Body: func(tc *nanos.TaskContext) {
							for c := 0; c < 4; c++ {
								tc.Submit(nanos.TaskSpec{
									Label: "leaf",
									Deps:  []nanos.Dep{nanos.DInOut(d, nanos.Iv(lo, lo+16))},
									Body:  func(*nanos.TaskContext) { sum.Add(1) },
								})
								tc.Taskwait()
							}
						}})
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(iters * (4 + 3*inner + 6*4))
			if got := sum.Load(); got != want {
				t.Fatalf("ran %d bodies, want %d", got, want)
			}
			st := rt.TaskwaitStats()
			if st.Handoffs != 0 || st.StealResumes != 0 {
				t.Errorf("stats %+v, want zero handoffs and steal-resumes", st)
			}
			if st.Parks+st.Inlined == 0 {
				t.Errorf("no wait helped or parked on a wait-heavy workload (stats %+v)", st)
			}
			rst := rt.ReplayStats()
			if !replayOn {
				if rst != (nanos.ReplayStats{}) {
					t.Errorf("replay off: stats %+v, want zero", rst)
				}
				return
			}
			if rst.Records == 0 {
				t.Errorf("no region recorded: %+v", rst)
			}
			if iters > 1 && rst.Replays == 0 {
				t.Errorf("owner-wait region never replayed: %+v", rst)
			}
		})
	}
}

// TestStressVirtualDeterminism: identical virtual-mode runs produce
// identical makespans and task counts, across policies.
func TestStressVirtualDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := buildStressProgram(rng, 2)
		run := func() (int64, int64) {
			rt := nanos.New(nanos.Config{Workers: 1 + int(seed%7), Virtual: true})
			d := rt.NewData("x", stressUniverse, 8)
			var submit func(tc *nanos.TaskContext, st *stressTask)
			submit = func(tc *nanos.TaskContext, st *stressTask) {
				var deps []nanos.Dep
				// Virtual mode has no Taskwait, so a wrapper goes in
				// without submitWrapper's brackets: clause-free, and
				// unordered against its siblings (determinism is all this
				// oracle checks).
				if len(st.children) > 0 && !st.wrapper {
					deps = append(deps, nanos.DWeakInOut(d, st.cover))
				}
				for _, iv := range st.reads {
					deps = append(deps, nanos.DIn(d, iv))
				}
				for _, iv := range st.writes {
					deps = append(deps, nanos.DInOut(d, iv))
				}
				tc.Submit(nanos.TaskSpec{
					Label: st.label, WeakWait: st.weakWait, Deps: deps,
					Cost: 1 + int64(st.seq%13),
					Body: func(tc *nanos.TaskContext) {
						for _, c := range st.children {
							submit(tc, c)
						}
					},
				})
			}
			rt.Run(func(tc *nanos.TaskContext) {
				for _, st := range prog {
					submit(tc, st)
				}
			})
			return rt.VirtualTime(), rt.TaskCount()
		}
		t1, c1 := run()
		t2, c2 := run()
		return t1 == t2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(55))}); err != nil {
		t.Fatal(err)
	}
}
