package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func TestPriorityPolicyDispatchOrder(t *testing.T) {
	rt := New(Config{Workers: 1, Policy: sched.Priority})
	var mu sync.Mutex
	var order []int64
	rt.Run(func(tc *TaskContext) {
		// With one worker, the root holds the only token while it submits,
		// so all children queue; they then dispatch by priority.
		for _, p := range []int64{1, 5, 3, 5, 2} {
			p := p
			tc.Submit(TaskSpec{Label: "p", Priority: p, Body: func(*TaskContext) {
				mu.Lock()
				order = append(order, p)
				mu.Unlock()
			}})
		}
	})
	want := []int64{5, 5, 3, 2, 1}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

func TestPriorityPolicyVirtual(t *testing.T) {
	rt := New(Config{Workers: 1, Virtual: true, Policy: sched.Priority})
	var order []int64
	rt.Run(func(tc *TaskContext) {
		for _, p := range []int64{1, 5, 3} {
			p := p
			tc.Submit(TaskSpec{Label: "p", Priority: p, Body: func(*TaskContext) {
				order = append(order, p)
			}})
		}
	})
	want := []int64{5, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("virtual dispatch order = %v, want %v", order, want)
		}
	}
}

// TestPolicySelectsPool pins the ready-pool selection rule — FIFO runs the
// work-stealing pool with its creator lane and help step, LIFO and Priority
// run the central queue, which has neither — and
// runs a strict dependency chain and a taskwait-heavy tree on each, checking
// the dependency order and completion are pool-independent.
func TestPolicySelectsPool(t *testing.T) {
	for _, policy := range []sched.Policy{sched.FIFO, sched.LIFO, sched.Priority} {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", policy, w), func(t *testing.T) {
				rt := New(Config{Workers: w, Policy: policy, Debug: true})
				switch policy {
				case sched.FIFO:
					if _, ok := rt.sch.(*sched.Stealing[*Task]); !ok {
						t.Fatalf("pool = %T, want *sched.Stealing", rt.sch)
					}
					if rt.lane == nil {
						t.Fatal("stealing pool has no creator lane")
					}
					if rt.help == nil {
						t.Fatal("stealing pool has no help step")
					}
				default:
					if _, ok := rt.sch.(*sched.Scheduler[*Task]); !ok {
						t.Fatalf("pool = %T, want *sched.Scheduler", rt.sch)
					}
					if rt.lane != nil || rt.help != nil {
						t.Fatal("central pool has a creator lane or a help step")
					}
				}
				d := rt.NewData("x", 1000, 8)
				var stage atomic.Int64
				var bad atomic.Int64
				err := rt.RunChecked(func(tc *TaskContext) {
					for i := 0; i < 20; i++ {
						i := i
						tc.Submit(TaskSpec{
							Label: "chain",
							Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: 0, Hi: 1000}}}},
							Body: func(*TaskContext) {
								if !stage.CompareAndSwap(int64(i), int64(i+1)) {
									bad.Add(1)
								}
							},
						})
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if bad.Load() != 0 || stage.Load() != 20 {
					t.Fatalf("chain order violated (bad=%d, stage=%d)", bad.Load(), stage.Load())
				}

				// Taskwait tree: exercises the Yield/Acquire token protocol
				// (including waiter priority at release points) on this pool.
				rt2 := New(Config{Workers: w, Policy: policy, Debug: true})
				var sum atomic.Int64
				err = rt2.RunChecked(func(tc *TaskContext) {
					for i := 0; i < 4; i++ {
						tc.Submit(TaskSpec{Label: "mid", Body: func(tc *TaskContext) {
							for j := 0; j < 4; j++ {
								tc.Submit(TaskSpec{Label: "leaf", Body: func(*TaskContext) { sum.Add(1) }})
							}
							tc.Taskwait()
							if sum.Load() < 4 {
								panic("taskwait resumed before children completed")
							}
							sum.Add(100)
						}})
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := sum.Load(); got != 4*4+4*100 {
					t.Fatalf("sum = %d, want %d", got, 4*4+4*100)
				}
			})
		}
	}
}

func TestStealingConfigNestedWeak(t *testing.T) {
	rt := New(Config{Workers: 8, Debug: true})
	d := rt.NewData("x", 800, 8)
	var sum atomic.Int64
	err := rt.RunChecked(func(tc *TaskContext) {
		tc.Submit(TaskSpec{
			Label:    "outer",
			WeakWait: true,
			Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: 0, Hi: 800}}}},
			Body: func(tc *TaskContext) {
				for i := int64(0); i < 8; i++ {
					i := i
					tc.Submit(TaskSpec{
						Label: "leaf",
						Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: i * 100, Hi: (i + 1) * 100}}}},
						Body:  func(*TaskContext) { sum.Add(1) },
					})
				}
			},
		})
		tc.Submit(TaskSpec{
			Label: "after",
			Deps:  []Dep{{Data: d, Type: In, Ivs: []Interval{{Lo: 0, Hi: 800}}}},
			Body: func(*TaskContext) {
				if sum.Load() != 8 {
					panic("reader ran before all leaves finished")
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
