package core

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/randtest"
)

// Chaos soak: the full real-mode stack — sharded deps, stealing pool,
// sharded throttle, pooled memory, record-and-replay regions, continuation
// taskwait, chunked worksharing — driven under randomized seeded failpoint
// schedules (internal/chaos) that widen every lock-free race window the
// runtime owns. The oracles are the existing ones: a deterministic final
// data state (writers chain, so any legal order agrees), the Debug leak
// joins, direct pool/credit drain checks, and the stall watchdog reporting
// nothing. Failing seeds replay with -seed.

// chaosStack is the fully-sharded configuration the soak exercises.
func chaosStack() Config {
	return Config{
		Workers:           4,
		ThrottleOpenTasks: 6,
		Watchdog:          true,
		Debug:             true,
	}
}

// runChaosProgram executes the mixed workload and returns the final-state
// checksum. The program has a fixed shape per (iters, width), so runs under
// different chaos schedules must agree exactly:
//
//   - iters graph-region executions of a width-task dependency mesh
//     (records once, replays after — and every forced ReplayInvalidate
//     falls back live mid-region and re-records);
//   - a dependency-carrying parent with a nested submit + blocking
//     taskwait per iteration (continuation handoffs under chaos);
//   - a worksharing sweep and a taskgroup burst per iteration;
//   - an all-weak creator nest per iteration (four weakwait creators, every
//     other one through a weak sub-creator, over leaves that chain across
//     iterations): creators ride the stealing pool's creator lane, so the
//     lane's thief-versus-owner race runs under the schedules too.
func runChaosProgram(r *Runtime, iters, width int) (int64, error) {
	const elems = 64
	d0 := r.NewData("c0", elems, 8)
	d1 := r.NewData("c1", elems, 8)
	d2 := r.NewData("c2", elems, 8)
	state := make([]int64, 3*elems)
	weakCreator := func(tc *TaskContext, iv Interval, body func(*TaskContext)) {
		tc.Submit(TaskSpec{
			Label:    "creator",
			WeakWait: true,
			Deps:     []Dep{{Data: d2, Type: InOut, Weak: true, Ivs: []Interval{iv}}},
			Body:     body,
		})
	}
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < iters; it++ {
			mult := int64(2*it + 3)
			tc.Graph("mesh", func(tc *TaskContext) {
				for i := 0; i < width; i++ {
					lo := int64(i%4) * 16
					iv := Interval{Lo: lo, Hi: lo + 16}
					tc.Submit(TaskSpec{
						Label: "mesh",
						Deps: []Dep{
							{Data: d0, Type: InOut, Ivs: []Interval{iv}},
							{Data: d1, Type: In, Ivs: []Interval{{Lo: 0, Hi: 8}}},
						},
						Body: func(*TaskContext) {
							for e := iv.Lo; e < iv.Hi; e++ {
								state[e] = state[e]*mult + 1
							}
						},
					})
				}
			})
			tc.Submit(TaskSpec{
				Label: "parent",
				Deps:  []Dep{{Data: d1, Type: InOut, Ivs: []Interval{{Lo: 8, Hi: 16}}}},
				Body: func(tc *TaskContext) {
					tc.Submit(TaskSpec{
						Label: "child",
						Body: func(*TaskContext) {
							for e := int64(8); e < 16; e++ {
								state[elems+e] += mult
							}
						},
					})
					tc.Taskwait()
					state[elems]++
				},
			})
			tc.Worksharing(WorksharingSpec{
				Label: "sweep",
				Lo:    16, Hi: elems, Grain: 8,
				Deps: func(lo, hi int64) []Dep {
					return []Dep{{Data: d1, Type: InOut, Ivs: []Interval{{Lo: lo, Hi: hi}}}}
				},
				Body: func(tc *TaskContext, lo, hi int64) {
					for e := lo; e < hi; e++ {
						state[elems+e] += mult
					}
				},
			})
			tc.Taskgroup(func() {
				for i := 0; i < 4; i++ {
					tc.Submit(TaskSpec{Label: "burst", Body: func(*TaskContext) {}})
				}
			})
			leaves := func(part Interval) func(*TaskContext) {
				return func(tc *TaskContext) {
					for lo := part.Lo; lo < part.Hi; lo += 8 {
						iv := Interval{Lo: lo, Hi: lo + 8}
						tc.Submit(TaskSpec{
							Label: "leaf",
							Deps:  []Dep{{Data: d2, Type: InOut, Ivs: []Interval{iv}}},
							Body: func(*TaskContext) {
								for e := iv.Lo; e < iv.Hi; e++ {
									state[2*elems+e] = state[2*elems+e]*mult + 1
								}
							},
						})
					}
				}
			}
			for q := int64(0); q < 4; q++ {
				part := Interval{Lo: q * elems / 4, Hi: (q + 1) * elems / 4}
				if q%2 == 0 {
					weakCreator(tc, part, leaves(part))
				} else {
					weakCreator(tc, part, func(tc *TaskContext) { weakCreator(tc, part, leaves(part)) })
				}
			}
		}
	})
	var sum int64
	for i, v := range state {
		sum += v * int64(i+1)
	}
	return sum, err
}

func soakSizes(t *testing.T) (iters, width int) {
	if testing.Short() {
		return 4, 8
	}
	return 8, 12
}

// TestChaosSoak runs the mixed workload under >= 10 seeded failpoint
// schedules spanning fire rates from "always" to sparse, comparing every
// run's checksum against a chaos-off reference and asserting a full drain
// and zero stall reports each time.
func TestChaosSoak(t *testing.T) {
	iters, width := soakSizes(t)
	ref := New(chaosStack())
	want, err := runChaosProgram(ref, iters, width)
	if err != nil {
		t.Fatalf("chaos-off reference failed: %v", err)
	}
	defer chaos.Disable()
	for _, seed := range randtest.SeedRange(t, 1, 13) {
		for _, rate := range []uint32{1, 4, 16} {
			t.Run(fmt.Sprintf("seed=%d/rate=%d", seed, rate), func(t *testing.T) {
				chaos.Enable(chaos.UniformSchedule(uint64(seed), rate))
				defer chaos.Disable()
				r := New(chaosStack())
				got, err := runChaosProgram(r, iters, width)
				if err != nil {
					t.Fatalf("seed %d rate %d: run failed: %v (replay with -seed=%d)", seed, rate, err, seed)
				}
				calls, hits := chaos.Counts()
				var totalCalls, totalHits uint64
				for s := 0; s < chaos.NumSites; s++ {
					totalCalls += calls[s]
					totalHits += hits[s]
				}
				if totalCalls == 0 || totalHits == 0 {
					t.Fatalf("seed %d rate %d: chaos never engaged (calls=%d hits=%d) — injection sites unreachable?",
						seed, rate, totalCalls, totalHits)
				}
				if got != want {
					t.Fatalf("seed %d rate %d: checksum %d != reference %d (replay with -seed=%d)",
						seed, rate, got, want, seed)
				}
				assertDrained(t, r)
				if reps := r.StallReports(); len(reps) != 0 {
					t.Fatalf("seed %d rate %d: watchdog fired %d times under chaos: %v", seed, rate, len(reps), reps[0].String())
				}
			})
		}
	}
}

// TestChaosSoakWithPanic combines the two robustness layers: a member task
// panics mid-workload while failpoints are firing at full rate. The run
// must still surface exactly one TaskError and drain to zero outstanding
// everything.
func TestChaosSoakWithPanic(t *testing.T) {
	defer chaos.Disable()
	for _, seed := range randtest.SeedRange(t, 1, 5) {
		chaos.Enable(chaos.UniformSchedule(uint64(seed), 2))
		r := New(chaosStack())
		r.NewData("p", 32, 8)
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < 4; it++ {
				tc.Graph("pg", func(tc *TaskContext) {
					for i := 0; i < 6; i++ {
						i := i
						tc.Submit(TaskSpec{
							Label: "pmember",
							Body: func(*TaskContext) {
								if i == 3 {
									panic("chaos boom")
								}
							},
						})
					}
				})
			}
		})
		chaos.Disable()
		wantTaskError(t, err, "pmember", "chaos boom")
		assertDrained(t, r)
	}
}

// TestChaosScheduleIsInert re-checks, at the runtime level, that an armed
// schedule with rate 0 everywhere changes nothing and costs no failures —
// the zero-cost-when-disabled contract's runtime-facing half.
func TestChaosScheduleIsInert(t *testing.T) {
	defer chaos.Disable()
	chaos.Enable(chaos.Schedule{Seed: 99}) // all rates zero: armed but silent
	r := New(chaosStack())
	got, err := runChaosProgram(r, 4, 8)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	chaos.Disable()
	ref := New(chaosStack())
	want, err := runChaosProgram(ref, 4, 8)
	if err != nil {
		t.Fatalf("reference failed: %v", err)
	}
	if got != want {
		t.Fatalf("rate-0 schedule changed the checksum: %d != %d", got, want)
	}
	_, hits := chaos.Counts()
	for s := 0; s < chaos.NumSites; s++ {
		if hits[s] != 0 {
			t.Fatalf("site %d fired %d times under a rate-0 schedule", s, hits[s])
		}
	}
}
