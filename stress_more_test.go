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

// runStressCfg is runStress with a custom runtime configuration and an
// optional per-task priority source.
func runStressCfg(t *testing.T, tasks []*stressTask, cfg nanos.Config, prio func(label string) int64) {
	expect, final := stressReference(tasks)
	rt := nanos.New(cfg)
	d := rt.NewData("x", stressUniverse, 8)
	data := make([]int64, stressUniverse)
	var mu sync.Mutex
	var violations []string

	var submit func(tc *nanos.TaskContext, st *stressTask)
	submit = func(tc *nanos.TaskContext, st *stressTask) {
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
		spec := nanos.TaskSpec{
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
		}
		if prio != nil {
			spec.Priority = prio(st.label)
		}
		tc.Submit(spec)
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
// directive active in every weakwait task) across the ready pools: work
// stealing (the FIFO policy) and the central queue under LIFO and under
// Priority with random priorities, each with and without hand-off.
func TestStressSchedulerMatrix(t *testing.T) {
	type cfgCase struct {
		name string
		cfg  nanos.Config
		prio bool
	}
	cases := []cfgCase{
		{"stealing", nanos.Config{Workers: 4}, false},
		{"stealing-nohandoff", nanos.Config{Workers: 4, NoHandoff: true}, false},
		{"central-lifo", nanos.Config{Workers: 4, Policy: nanos.LIFO}, false},
		{"central-lifo-nohandoff", nanos.Config{Workers: 4, Policy: nanos.LIFO, NoHandoff: true}, false},
		{"central-priority", nanos.Config{Workers: 4, Policy: nanos.Priority}, true},
		{"central-priority-nohandoff", nanos.Config{Workers: 4, Policy: nanos.Priority, NoHandoff: true}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(5000 + seed))
				prog := buildStressProgram(rng, 2)
				var prio func(string) int64
				if c.prio {
					// Submit runs concurrently, so derive the priority from
					// the label rather than sharing an rng.
					prio = func(label string) int64 {
						var h int64
						for _, ch := range label {
							h = h*31 + int64(ch)
						}
						return (h + seed) % 5
					}
				}
				cfg := c.cfg
				cfg.Debug = true
				runStressCfg(t, prog, cfg, prio)
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

// TestStressTaskwaitContinuationMatrix combines the taskwait strategies
// with every sharded subsystem at once — stealing ready pool, sharded
// throttle window, pooled memory, and replay graph regions (one
// replay-eligible region with owner-level waits, one made ineligible by
// member-task waits over nested submissions) — under Debug, whose
// end-of-run checks assert zero continuation nodes outstanding at drain.
// Run with -race this is the concurrency-safety net for the continuation
// handoff across all layers.
func TestStressTaskwaitContinuationMatrix(t *testing.T) {
	iters, inner := 4, 20
	if testing.Short() {
		iters, inner = 2, 8
	}
	for _, impl := range []nanos.TaskwaitKind{nanos.TaskwaitParking, nanos.TaskwaitContinuation} {
		impl := impl
		t.Run(fmt.Sprintf("impl=%v", impl), func(t *testing.T) {
			rt := nanos.New(nanos.Config{
				Workers:           4,
				ThrottleOpenTasks: 6,
				TaskwaitImpl:      impl,
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
			if n := rt.ContPoolStats().Outstanding(); n != 0 {
				t.Fatalf("%d continuation nodes outstanding after drain", n)
			}
			st := rt.TaskwaitStats()
			switch impl {
			case nanos.TaskwaitContinuation:
				if st.Parks != 0 {
					t.Errorf("continuation: %d parks, want zero (stats %+v)", st.Parks, st)
				}
				if st.Handoffs == 0 {
					t.Errorf("continuation: no handoffs on a wait-heavy workload (stats %+v)", st)
				}
			case nanos.TaskwaitParking:
				if st.Handoffs != 0 || st.StealResumes != 0 {
					t.Errorf("parking: stats %+v, want zero handoffs and steal-resumes", st)
				}
				if st.Parks == 0 {
					t.Errorf("parking: no parks on a wait-heavy workload (stats %+v)", st)
				}
			}
			rst := rt.ReplayStats()
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
				if len(st.children) > 0 {
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
