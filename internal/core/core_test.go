package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/cachesim"
)

func iv(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// TestRunEmpty: a root body with no tasks completes.
func TestRunEmpty(t *testing.T) {
	r := New(Config{Workers: 2})
	ran := false
	r.Run(func(tc *TaskContext) { ran = true })
	if !ran {
		t.Fatal("root body did not run")
	}
}

// TestDependencyOrdering: a chain of dependent increments must execute in
// order even with many workers.
func TestDependencyOrdering(t *testing.T) {
	r := New(Config{Workers: 8})
	d := r.NewData("x", 1, 8)
	var val int64
	const n = 100
	r.Run(func(tc *TaskContext) {
		for i := 0; i < n; i++ {
			expect := int64(i)
			tc.Submit(TaskSpec{
				Label: "inc",
				Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
				Body: func(tc *TaskContext) {
					if !atomic.CompareAndSwapInt64(&val, expect, expect+1) {
						t.Errorf("task %d ran out of order (val=%d)", expect, atomic.LoadInt64(&val))
					}
				},
			})
		}
	})
	if val != n {
		t.Fatalf("val = %d, want %d", val, n)
	}
}

// TestIndependentTasksRunInParallel: two tasks with disjoint deps can
// overlap; verified with a rendezvous that deadlocks if serialized.
func TestIndependentTasksRunInParallel(t *testing.T) {
	r := New(Config{Workers: 2})
	d := r.NewData("x", 2, 8)
	c1 := make(chan struct{})
	c2 := make(chan struct{})
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "a",
			Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
			Body: func(*TaskContext) { close(c1); <-c2 }})
		tc.Submit(TaskSpec{Label: "b",
			Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(1, 2)}}},
			Body: func(*TaskContext) { close(c2); <-c1 }})
	})
}

// TestTaskwait: children complete before Taskwait returns.
func TestTaskwait(t *testing.T) {
	r := New(Config{Workers: 4})
	var done atomic.Int64
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 20; i++ {
			tc.Submit(TaskSpec{Label: "w", Body: func(*TaskContext) { done.Add(1) }})
		}
		tc.Taskwait()
		if done.Load() != 20 {
			t.Errorf("Taskwait returned with %d of 20 children done", done.Load())
		}
		// A second wave after the wait must also be awaited by Run's
		// implicit wait.
		for i := 0; i < 5; i++ {
			tc.Submit(TaskSpec{Label: "w2", Body: func(*TaskContext) { done.Add(1) }})
		}
	})
	if done.Load() != 25 {
		t.Fatalf("done = %d, want 25", done.Load())
	}
}

// TestNestedTaskwait: taskwait waits the direct children's full subtrees.
func TestNestedTaskwait(t *testing.T) {
	r := New(Config{Workers: 4})
	var leaves atomic.Int64
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "mid", Body: func(tc *TaskContext) {
			for i := 0; i < 10; i++ {
				tc.Submit(TaskSpec{Label: "leaf", Body: func(*TaskContext) { leaves.Add(1) }})
			}
		}})
		tc.Taskwait()
		if leaves.Load() != 10 {
			t.Errorf("Taskwait returned before grandchildren: %d of 10", leaves.Load())
		}
	})
}

// TestWeakwaitEarlyRelease reproduces listing 2 with real concurrency: T1
// (weakwait) spawns T1.1 (fast) and T1.2 (blocked); T2 (in a) must run
// while T1.2 is still blocked.
func TestWeakwaitEarlyRelease(t *testing.T) {
	r := New(Config{Workers: 4})
	d := r.NewData("ab", 2, 8)
	t12block := make(chan struct{})
	t2ran := make(chan struct{})
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{
			Label:    "T1",
			WeakWait: true,
			Deps:     []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 2)}}},
			Body: func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "T1.1",
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
					Body: func(*TaskContext) {}})
				tc.Submit(TaskSpec{Label: "T1.2",
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(1, 2)}}},
					Body: func(*TaskContext) { <-t12block }})
			},
		})
		tc.Submit(TaskSpec{Label: "T2",
			Deps: []Dep{{Data: d, Type: In, Ivs: []Interval{iv(0, 1)}}},
			Body: func(*TaskContext) { close(t2ran) }})
		// Unblock T1.2 only after T2 has run: if the runtime wrongly
		// deferred T2 until all of T1's subtree finished, this deadlocks.
		<-t2ran
		close(t12block)
	})
	st := r.DepStats()
	if st.Handovers == 0 {
		t.Fatal("expected weakwait hand-overs")
	}
}

// TestWeakDepsParallelInstantiation reproduces the key property of §VI: an
// outer task with only weak deps starts (and creates subtasks) while its
// predecessor still runs; its subtask then waits for the predecessor.
func TestWeakDepsParallelInstantiation(t *testing.T) {
	r := New(Config{Workers: 4})
	d := r.NewData("a", 1, 8)
	block := make(chan struct{})
	instantiated := make(chan struct{})
	var order []string
	var mu chanLock
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "W",
			Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
			Body: func(*TaskContext) {
				<-block
				mu.Lock()
				order = append(order, "W")
				mu.Unlock()
			}})
		tc.Submit(TaskSpec{Label: "P",
			WeakWait: true,
			Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{iv(0, 1)}}},
			Body: func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "C",
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}},
					Body: func(*TaskContext) {
						mu.Lock()
						order = append(order, "C")
						mu.Unlock()
					}})
				close(instantiated)
			}})
		// P must instantiate C while W is still blocked.
		<-instantiated
		close(block)
	})
	if len(order) != 2 || order[0] != "W" || order[1] != "C" {
		t.Fatalf("order = %v, want [W C]", order)
	}
}

// chanLock is a tiny mutex built on a channel (keeps the test dependency-free).
type chanLock struct{ ch chan struct{} }

func (l *chanLock) Lock() {
	if l.ch == nil {
		l.ch = make(chan struct{}, 1)
	}
	l.ch <- struct{}{}
}
func (l *chanLock) Unlock() { <-l.ch }

// TestReleaseDirectiveRealMode: releasing part of the depend set mid-body
// unblocks a successor while the task still runs.
func TestReleaseDirectiveRealMode(t *testing.T) {
	r := New(Config{Workers: 2})
	d := r.NewData("x", 10, 8)
	succRan := make(chan struct{})
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "T1",
			Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 10)}}},
			Body: func(tc *TaskContext) {
				tc.Release(Dep{Data: d, Ivs: []Interval{iv(5, 10)}})
				<-succRan // deadlocks if the release did not propagate
			}})
		tc.Submit(TaskSpec{Label: "T2",
			Deps: []Dep{{Data: d, Type: In, Ivs: []Interval{iv(5, 10)}}},
			Body: func(*TaskContext) { close(succRan) }})
	})
}

// TestThrottleBound: the live-task count never exceeds the configured bound
// plus the submitting root.
func TestThrottleBound(t *testing.T) {
	const lim = 8
	r := New(Config{Workers: 2, ThrottleOpenTasks: lim})
	var peak atomic.Int64
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 200; i++ {
			tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {
				c := tc.rt.taskCounts().open
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
			}})
		}
	})
	if peak.Load() > lim+1 {
		t.Fatalf("open tasks peaked at %d, throttle %d", peak.Load(), lim)
	}
}

// TestFlopsAndTaskCount accounting.
func TestFlopsAndTaskCount(t *testing.T) {
	r := New(Config{Workers: 2})
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 10; i++ {
			tc.Submit(TaskSpec{Label: "f", Flops: 7, Body: func(*TaskContext) {}})
		}
	})
	if r.Flops() != 70 {
		t.Fatalf("Flops = %d, want 70", r.Flops())
	}
	if r.TaskCount() != 10 {
		t.Fatalf("TaskCount = %d, want 10", r.TaskCount())
	}
}

// TestTraceRecordsSpans: real-mode tracing produces spans and a plausible
// effective parallelism.
func TestTraceRecordsSpans(t *testing.T) {
	r := New(Config{Workers: 2, EnableTrace: true})
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 16; i++ {
			tc.Submit(TaskSpec{Label: "t", Kind: "k", Body: func(*TaskContext) {
				for s := 0; s < 1000; s++ {
					_ = s * s
				}
			}})
		}
	})
	spans := r.Tracer().Spans()
	if len(spans) != 16 {
		t.Fatalf("got %d spans, want 16", len(spans))
	}
	ep := r.EffectiveParallelism()
	if ep <= 0 || ep > 2.01 {
		t.Fatalf("EffectiveParallelism = %f, want in (0, 2]", ep)
	}
}

// --- Virtual mode ---

// TestVirtualIndependentMakespan: n independent unit tasks on w cores take
// ceil(n/w) virtual time.
func TestVirtualIndependentMakespan(t *testing.T) {
	r := New(Config{Workers: 2, Virtual: true})
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 4; i++ {
			tc.Submit(TaskSpec{Label: "t", Cost: 1})
		}
	})
	if r.VirtualTime() != 2 {
		t.Fatalf("makespan = %d, want 2", r.VirtualTime())
	}
	if ep := r.EffectiveParallelism(); ep != 2 {
		t.Fatalf("EP = %f, want 2", ep)
	}
}

// TestVirtualChainMakespan: a dependent chain serializes.
func TestVirtualChainMakespan(t *testing.T) {
	r := New(Config{Workers: 4, Virtual: true})
	d := r.NewData("x", 1, 8)
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 5; i++ {
			tc.Submit(TaskSpec{Label: "c", Cost: 3,
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1)}}}})
		}
	})
	if r.VirtualTime() != 15 {
		t.Fatalf("makespan = %d, want 15", r.VirtualTime())
	}
}

// TestVirtualWeakwaitPipelines: the structural benefit of §V/§VI in virtual
// time. Four outer stages each spawn 3 independent lane subtasks (cost 10)
// on 2 cores. With strong outer deps and bulk release (nest-depend), each
// stage runs alone: 3 tasks on 2 cores = 20 per stage, ~80+ total. With
// weak deps + weakwait, all 12 subtasks pipeline lane-wise: 120 units of
// work on 2 cores ≈ 60. The crossover is exactly what Figures 5 and 6 show.
func TestVirtualWeakwaitPipelines(t *testing.T) {
	const lanes, stages = 3, 4
	build := func(weak bool) *Runtime {
		// NoHandoff isolates the dependency-structure effect from the
		// locality hand-off policy (which trades breadth for cache reuse).
		r := New(Config{Workers: 2, Virtual: true, NoHandoff: true})
		d := r.NewData("x", lanes, 8)
		r.Run(func(tc *TaskContext) {
			for s := 0; s < stages; s++ {
				tc.Submit(TaskSpec{
					Label:    "stage",
					WeakWait: weak,
					Deps:     []Dep{{Data: d, Type: InOut, Weak: weak, Ivs: []Interval{iv(0, lanes)}}},
					Body: func(tc *TaskContext) {
						for l := int64(0); l < lanes; l++ {
							tc.Submit(TaskSpec{Label: "lane", Cost: 10,
								Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(l, l+1)}}}})
						}
					},
				})
			}
		})
		return r
	}
	weak := build(true)
	strong := build(false)
	if weak.VirtualTime() >= strong.VirtualTime() {
		t.Fatalf("weak makespan %d should beat strong %d", weak.VirtualTime(), strong.VirtualTime())
	}
	if strong.VirtualTime() < 75 {
		t.Fatalf("strong variant should serialize the stages: %d", strong.VirtualTime())
	}
	if weak.VirtualTime() > 70 {
		t.Fatalf("weak variant should pipeline the lanes: %d", weak.VirtualTime())
	}
}

// TestVirtualDeterminism: identical programs produce identical makespans.
func TestVirtualDeterminism(t *testing.T) {
	run := func() int64 {
		r := New(Config{Workers: 3, Virtual: true})
		d := r.NewData("x", 16, 8)
		r.Run(func(tc *TaskContext) {
			for i := int64(0); i < 16; i++ {
				i := i
				tc.Submit(TaskSpec{Label: "t", Cost: 1 + i%3,
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(i/2, i/2+1)}}}})
			}
		})
		return r.VirtualTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual runs diverged: %d vs %d", a, b)
	}
}

// TestVirtualCacheLocality: with one data region bounced between tasks, the
// simulated cache hits when the successor stays on the same core.
func TestVirtualCacheLocality(t *testing.T) {
	cache := cachesim.Config{LineBytes: 64, Ways: 4, Sets: 64} // 16 KiB
	r := New(Config{Workers: 2, Virtual: true, Cache: &cache})
	d := r.NewData("x", 1024, 8) // 8 KiB, fits
	r.Run(func(tc *TaskContext) {
		for i := 0; i < 10; i++ {
			tc.Submit(TaskSpec{Label: "t", Cost: 5,
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 1024)}}}})
		}
	})
	// With hand-off, every successor runs on the same core: only the first
	// pass misses.
	if ratio := r.CacheMissRatio(); ratio > 0.15 {
		t.Fatalf("hand-off should keep the chain warm: miss ratio %f", ratio)
	}
}

// TestVirtualTaskwaitPanics: Taskwait is a real-mode facility.
func TestVirtualTaskwaitPanics(t *testing.T) {
	r := New(Config{Workers: 1, Virtual: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "t", Body: func(tc *TaskContext) { tc.Taskwait() }})
	})
}

// TestRunTwicePanics: a Runtime is single-run.
func TestRunTwicePanics(t *testing.T) {
	r := New(Config{Workers: 1})
	r.Run(func(*TaskContext) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Run(func(*TaskContext) {})
}
