package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/regions"
)

// Runtime-level memory-pool tests: the pooled mode (the real-mode default)
// must produce exactly the same program results as the allocate-always
// reference, leak nothing once the run drains, and keep diagnostics that
// outlive tasks — verification Violations — intact after the tasks and
// nodes they describe have been recycled.

// memDiffProgram runs a randomized nested dependency program under cfg on
// the given engine and memory mode (park-only if asked) and returns a
// deterministic digest of its observable results (the final data array,
// the task count, and the virtual makespan, 0 in real mode) and the
// engine's registered fragment count.
func memDiffProgram(t *testing.T, cfg Config, kind deps.EngineKind, mem mempool.Kind, parkOnly bool, seed int64) (string, int64) {
	cfg.Debug = true
	rt := newWithEngine(cfg, kind, mem)
	rt.parkOnly = parkOnly
	const elems = 256
	data := rt.NewData("a", elems, 8)
	arr := make([]int64, elems)
	rng := rand.New(rand.NewSource(seed))
	type blk struct{ lo, hi int64 }
	var blocks []blk
	for lo := int64(0); lo < elems; {
		ln := int64(16 + rng.Intn(48))
		hi := lo + ln
		if hi > elems {
			hi = elems
		}
		blocks = append(blocks, blk{lo, hi})
		lo = hi
	}
	rounds := 6 + rng.Intn(6)
	err := rt.RunChecked(func(tc *TaskContext) {
		for r := 0; r < rounds; r++ {
			for bi, b := range blocks {
				b := b
				step := int64(r*1000 + bi)
				weak := rng.Intn(2) == 0
				tc.Submit(TaskSpec{
					Label:    fmt.Sprintf("outer%d.%d", r, bi),
					WeakWait: weak,
					Deps:     []Dep{{Data: data, Type: InOut, Weak: true, Ivs: []Interval{regions.Iv(b.lo, b.hi)}}},
					Body: func(tc *TaskContext) {
						mid := (b.lo + b.hi) / 2
						tc.Submit(TaskSpec{
							Label: fmt.Sprintf("lo%d", step),
							Cost:  mid - b.lo,
							Deps:  []Dep{{Data: data, Type: InOut, Ivs: []Interval{regions.Iv(b.lo, mid)}}},
							Body: func(tc *TaskContext) {
								for p := b.lo; p < mid; p++ {
									arr[p] += step
								}
							},
						})
						tc.Submit(TaskSpec{
							Label: fmt.Sprintf("hi%d", step),
							Cost:  b.hi - mid,
							Deps:  []Dep{{Data: data, Type: InOut, Ivs: []Interval{regions.Iv(mid, b.hi)}}},
							Body: func(tc *TaskContext) {
								for p := mid; p < b.hi; p++ {
									arr[p] += 3 * step
								}
							},
						})
					},
				})
			}
		}
	})
	if err != nil {
		t.Fatalf("engine=%v mem=%v: %v", kind, mem, err)
	}
	// Only scheduling-independent observables: link/grant counts legally
	// vary with interleaving (a predecessor that already released needs no
	// link), but the data outcome, the task count, and (for one engine) the
	// registered fragment count must not.
	return fmt.Sprintf("arr=%v tasks=%d makespan=%d", arr, rt.TaskCount(), rt.VirtualTime()), rt.DepStats().Fragments
}

// TestMemPoolCoreDifferential drives identical nested weak-dependency
// programs through the runtime New builds (sharded engine, pooled memory)
// and through the references swapped in by newWithEngine — the
// allocate-always memory mode, and the single-mutex engine on top of it,
// in each Taskwait mode — and requires identical observable results (the
// sharded engine stripes objects the global one keeps whole, so only the
// two memory modes must also agree on the fragment count). The w=4 rounds
// exercise concurrent recycling; the Debug config adds the end-of-run leak
// check to every run.
func TestMemPoolCoreDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, ThrottleOpenTasks: 8}
			for seed := int64(1); seed <= 6; seed++ {
				pooled, pooledFrags := memDiffProgram(t, cfg, deps.EngineSharded, mempool.KindPooled, false, seed)
				ref, refFrags := memDiffProgram(t, cfg, deps.EngineSharded, mempool.KindReference, false, seed)
				if ref != pooled || refFrags != pooledFrags {
					t.Fatalf("seed=%d diverged:\n  reference: %s frags=%d\n  pooled:    %s frags=%d",
						seed, ref, refFrags, pooled, pooledFrags)
				}
				// The global engine in both Taskwait modes, with and without
				// successor hand-off: the digest is schedule-independent.
				for _, m := range twModes {
					gcfg := cfg
					gcfg.NoHandoff = seed%2 == 0
					if global, _ := memDiffProgram(t, gcfg, deps.EngineGlobal, mempool.KindReference, m.parkOnly, seed); global != pooled {
						t.Fatalf("seed=%d %s nohandoff=%v diverged:\n  global: %s\n  pooled: %s",
							seed, m.name, gcfg.NoHandoff, global, pooled)
					}
				}
			}
		})
	}
}

// TestVirtualEngineParity: a virtual-mode makespan must not depend on the
// engine behind it. The golden makespans in internal/workloads were
// recorded on the single-mutex engine with allocate-always memory and are
// asserted on what virtual mode runs now, the sharded engine with pooled
// memory; this drives the nested weak programs of the differential above
// through both in virtual mode and requires the same data, task count and
// makespan, with and without creation cost.
func TestVirtualEngineParity(t *testing.T) {
	for _, submitCost := range []int64{0, 4} {
		t.Run(fmt.Sprintf("cost=%d", submitCost), func(t *testing.T) {
			cfg := Config{Workers: 8, Virtual: true, VirtualSubmitCost: submitCost}
			for seed := int64(1); seed <= 6; seed++ {
				pooled, _ := memDiffProgram(t, cfg, deps.EngineSharded, mempool.KindPooled, false, seed)
				global, _ := memDiffProgram(t, cfg, deps.EngineGlobal, mempool.KindReference, false, seed)
				if global != pooled {
					t.Fatalf("seed=%d diverged:\n  global: %s\n  pooled: %s", seed, global, pooled)
				}
			}
		})
	}
}

// TestMemPoolBothModesPooled pins the one memory mode: the dependency
// engine recycles in real and in virtual mode alike, so Debug's pooled-
// object leak check applies to both.
func TestMemPoolBothModesPooled(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		rt := New(Config{Workers: 2, Virtual: virtual, Debug: true})
		rt.Run(func(tc *TaskContext) {})
		if _, pooled := rt.MemStats(); !pooled {
			t.Errorf("virtual=%v: the dependency engine is not pooled", virtual)
		}
	}
}

// TestMemPoolTaskRecycling pins that Task objects actually recycle: with a
// bounded lookahead window (so submission cannot run arbitrarily ahead of
// completion — the steady-state regime the pools target) a run with many
// more tasks than workers must allocate far fewer Tasks than it executes,
// and drain back to zero outstanding once the workers retire.
func TestMemPoolTaskRecycling(t *testing.T) {
	rt := New(Config{Workers: 2, ThrottleOpenTasks: 8})
	data := rt.NewData("a", 64, 8)
	const total = 1200
	rt.Run(func(tc *TaskContext) {
		for s := 0; s < total; s++ {
			// Independent ready tasks: each submission reserves a window
			// slot, so instantiation stays within 8 tasks of execution and
			// completed Task objects flow back to the submitter.
			tc.Submit(TaskSpec{
				Label: "t",
				Deps:  []Dep{{Data: data, Type: In, Ivs: []Interval{regions.Iv(0, 16)}}},
			})
		}
	})
	st := rt.TaskPoolStats()
	if st.Gets < total {
		t.Fatalf("task gets %d < %d submitted", st.Gets, total)
	}
	if st.News > total/4 {
		t.Errorf("%d fresh Task allocations over %d tasks; recycling is not engaging (%+v)",
			st.News, total, st)
	}
	// Worker goroutines recycle their final task asynchronously after the
	// run; poll briefly for full drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st = rt.TaskPoolStats(); st.Outstanding() == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := st.Outstanding(); n != 0 {
		t.Errorf("%d tasks outstanding after drain: %+v", n, st)
	}
}

// TestMemPoolViolationsSurviveRecycling: verification findings reference
// tasks only through copied labels, so Violations() stays intact after the
// offending tasks and their dependency nodes have been recycled.
func TestMemPoolViolationsSurviveRecycling(t *testing.T) {
	rt := New(Config{Workers: 2, Verify: true})
	data := rt.NewData("a", 128, 8)
	rt.Run(func(tc *TaskContext) {
		tc.Submit(TaskSpec{
			Label: "outer",
			Deps:  []Dep{{Data: data, Type: InOut, Weak: true, Ivs: []Interval{regions.Iv(0, 32)}}},
			Body: func(tc *TaskContext) {
				// Child escapes the parent's cover: a child-coverage
				// violation referencing both labels.
				tc.Submit(TaskSpec{
					Label: "escapee",
					Deps:  []Dep{{Data: data, Type: Out, Ivs: []Interval{regions.Iv(0, 64)}}},
				})
				// Touch outside the strong entries: a touch violation.
				tc.Touch(data, true, regions.Iv(0, 8))
			},
		})
		// Churn enough tasks to force the pools to reuse the violators'
		// memory before the assertions below run.
		for i := 0; i < 200; i++ {
			tc.Submit(TaskSpec{Label: fmt.Sprintf("churn%d", i)})
		}
	})
	vios := rt.Violations()
	if len(vios) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vios), vios)
	}
	var sawChild, sawTouch bool
	for _, v := range vios {
		switch v.Kind {
		case VChildCoverage:
			sawChild = true
			if v.Task != "escapee" || v.Parent != "outer" {
				t.Errorf("child-coverage violation lost its labels after recycling: %+v", v)
			}
		case VTouch:
			sawTouch = true
			if v.Task != "outer" {
				t.Errorf("touch violation lost its label after recycling: %+v", v)
			}
		}
	}
	if !sawChild || !sawTouch {
		t.Errorf("missing violation kinds: %v", vios)
	}
}

// TestMemPoolAllocGate gates the Taskwait allocation fix: the parking path
// reuses one signal channel per task (allocated on the first blocking
// wait, kept across waits and recycles) instead of making a fresh chan per
// wait. A steady-state {submit child; Taskwait} cycle in the pooled memory
// mode must stay at its 2-mallocs floor — a per-wait channel would push it
// to 3 — and well under the allocate-always reference (newWithEngine). The
// child carries a depend clause: a child without one takes no engine node,
// so the two memory modes would differ by the Task alone. The blocking
// paths are measured park-only, where at w=1 every such wait blocks; the
// helping waits run the child inline instead, and must stay as cheap.
func TestMemPoolAllocGate(t *testing.T) {
	measure := func(t *testing.T, mem mempool.Kind, m twMode) float64 {
		r := newWithEngine(Config{Workers: 1}, deps.EngineSharded, mem)
		r.parkOnly = m.parkOnly
		blocks := m.parkOnly
		cell := []Dep{{Data: r.NewData("cell", 1, 8), Type: InOut, Ivs: []Interval{regions.Iv(0, 1)}}}
		var per float64
		r.Run(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "driver", Body: func(tc *TaskContext) {
				// The driver holds the only token, so the submitted child
				// cannot have run when the wait starts.
				var firstSig chan struct{}
				cycle := func() {
					tc.Submit(TaskSpec{Label: "c", Deps: cell})
					tc.Taskwait()
				}
				for i := 0; i < 200; i++ {
					cycle()
					if blocks {
						if firstSig == nil {
							firstSig = tc.task.waitSig
							if firstSig == nil {
								t.Fatal("no signal channel after a blocking parking wait")
							}
						} else if tc.task.waitSig != firstSig {
							t.Fatal("parking wait replaced the task's signal channel; it must be reused")
						}
					}
				}
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				const N = 800
				for i := 0; i < N; i++ {
					cycle()
				}
				runtime.ReadMemStats(&m1)
				per = float64(m1.Mallocs-m0.Mallocs) / N
			}})
		})
		if st := r.TaskwaitStats(); blocks != (st.Parks > 0) || blocks == (st.Inlined > 0) {
			t.Errorf("stats %+v; park-only waits must block, helping waits help", st)
		}
		return per
	}
	for _, m := range twModes {
		t.Run(m.name, func(t *testing.T) {
			pooled := measure(t, mempool.KindPooled, m)
			ref := measure(t, mempool.KindReference, m)
			t.Logf("pooled %.2f mallocs/cycle, reference %.2f", pooled, ref)
			if pooled > 2.5 {
				t.Errorf("%.2f mallocs per wait cycle, want <= 2.5 (a per-wait allocation crept in)", pooled)
			}
			if ref < pooled*1.5 {
				t.Errorf("reference mode %.2f vs pooled %.2f mallocs/cycle; expected the pooled mode well below the reference",
					ref, pooled)
			}
		})
	}
}

// TestMemPoolAllocGateWorksharing gates the worksharing chunk descriptors:
// a steady-state {Worksharing region; Taskwait} cycle must draw every
// descriptor from the pool (zero fresh allocations once warm) and return
// every one at completion, and the whole cycle must stay within a few
// mallocs (the pooled task, the region's body closure, the wait) — a
// per-chunk or per-region descriptor allocation would scale with the
// region count and blow the bound.
func TestMemPoolAllocGateWorksharing(t *testing.T) {
	r := New(Config{Workers: 1})
	var sink atomic.Int64
	var per float64
	var newsDelta, outstanding int64
	r.Run(func(tc *TaskContext) {
		cycle := func() {
			tc.Worksharing(WorksharingSpec{
				Lo: 0, Hi: 256, Grain: 16,
				Body: func(tc *TaskContext, lo, hi int64) { sink.Add(hi - lo) },
			})
			tc.Taskwait()
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		runtime.GC()
		warm := r.WsPoolStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const N = 800
		for i := 0; i < N; i++ {
			cycle()
		}
		runtime.ReadMemStats(&m1)
		per = float64(m1.Mallocs-m0.Mallocs) / N
		st := r.WsPoolStats()
		newsDelta = st.News - warm.News
		outstanding = st.Outstanding()
		if st.Gets-warm.Gets != N {
			t.Errorf("drew %d descriptors over %d regions; every chunked region draws exactly one", st.Gets-warm.Gets, N)
		}
	})
	t.Logf("worksharing cycle: %.2f mallocs, descriptor news delta %d", per, newsDelta)
	if newsDelta != 0 {
		t.Errorf("%d fresh chunk-descriptor allocations in steady state, want 0 (recycling is not engaging)", newsDelta)
	}
	if outstanding != 0 {
		t.Errorf("%d chunk descriptors outstanding at drain, want 0", outstanding)
	}
	if per > 4.5 {
		t.Errorf("%.2f mallocs per worksharing cycle, want <= 4.5 (a per-region or per-chunk allocation crept in)", per)
	}
}

// TestMemPoolStressRace combines the pooled memory mode with every
// concurrent subsystem — sharded engine, stealing pool, throttle window — under
// churn with nested weakwait tasks and taskwait blockers; run with -race
// this is the concurrency-safety net for recycling across all layers.
func TestMemPoolStressRace(t *testing.T) {
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		rt := New(Config{
			Workers:           4,
			ThrottleOpenTasks: 6,
			Debug:             true,
		})
		data := rt.NewData("a", 512, 8)
		var sum atomic.Int64
		err := rt.RunChecked(func(tc *TaskContext) {
			for b := 0; b < 8; b++ {
				lo, hi := int64(b*64), int64(b*64+64)
				tc.Submit(TaskSpec{
					Label:    fmt.Sprintf("outer%d", b),
					WeakWait: b%2 == 0,
					Deps:     []Dep{{Data: data, Type: InOut, Weak: true, Ivs: []Interval{regions.Iv(lo, hi)}}},
					Body: func(tc *TaskContext) {
						for s := 0; s < 30; s++ {
							tc.Submit(TaskSpec{
								Label: "step",
								Deps:  []Dep{{Data: data, Type: InOut, Ivs: []Interval{regions.Iv(lo, hi)}}},
								Body:  func(tc *TaskContext) { sum.Add(1) },
							})
						}
						if lo%128 == 0 {
							tc.Taskwait()
						}
					},
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sum.Load(); got != 8*30 {
			t.Fatalf("ran %d step bodies, want %d", got, 8*30)
		}
	}
}
