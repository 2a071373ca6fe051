package harness

// Chaos benchmark kernel: the mixed-construct workload of the core chaos
// soak (graph regions that record and replay, nested taskwait parents,
// worksharing sweeps, taskgroup bursts) run under per-subsystem failpoint
// schedules (internal/chaos) with the stall watchdog armed. cmd/depbench's
// chaos table drives it once per ChaosGroups row and prints wall time,
// failpoint hits, and the stall-report count — which must be zero on every
// row: failpoints only widen race windows, they never drop operations, so
// a correct runtime under chaos is merely slower, never stuck.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// ChaosGroup names one subsystem's failpoint sites for the per-subsystem
// rows of the chaos table.
type ChaosGroup struct {
	// Name is the table row label.
	Name string
	// Sites are the failpoints armed for this row (empty = chaos off).
	Sites []chaos.Site
}

// ChaosGroups is the row set of the chaos table: the chaos-off baseline,
// one row per subsystem, and an everything-armed row. Together the
// subsystem rows cover all chaos.NumSites sites.
var ChaosGroups = []ChaosGroup{
	{Name: "off"},
	{Name: "sched", Sites: []chaos.Site{chaos.SchedStealCAS, chaos.SchedTokenRetire, chaos.SchedDekkerRecheck, chaos.SchedCreatorLane}},
	{Name: "throttle", Sites: []chaos.Site{chaos.ThrottleCreditSteal, chaos.ThrottleBatchWake}},
	{Name: "deps", Sites: []chaos.Site{chaos.DepsCascade, chaos.DepsPinRelease}},
	{Name: "mempool", Sites: []chaos.Site{chaos.MempoolRefill}},
	{Name: "replay", Sites: []chaos.Site{chaos.ReplayInvalidate}},
	{Name: "worksharing", Sites: []chaos.Site{chaos.WsAnnounceConsume}},
	{Name: "all", Sites: allChaosSites()},
}

func allChaosSites() []chaos.Site {
	sites := make([]chaos.Site, chaos.NumSites)
	for i := range sites {
		sites[i] = chaos.Site(i)
	}
	return sites
}

// ChaosResult is one chaos-table row's measurement.
type ChaosResult struct {
	// Wall is the workload's wall-clock time under the schedule.
	Wall time.Duration
	// Tasks is the number of tasks executed.
	Tasks int64
	// Checksum is the final-state checksum; every row of a sweep must
	// match the off row (the workload's shape is schedule-independent).
	Checksum int64
	// Hits is the total failpoint injection count across the row's sites.
	Hits uint64
	// Stalls is the number of watchdog stall reports — the expectation
	// column: zero on every row.
	Stalls int
}

// ChaosBench runs the mixed workload once under the group's failpoint
// schedule. rate is the per-site fire rate denominator (chaos.Schedule);
// iters and width size the workload. The runtime runs the fully sharded
// stack (stealing pool, sharded deps and throttle, watchdog, Debug leak
// checks) so the failpoints land on the protocols they target. Panics on
// any run error — under chaos the workload must still be correct.
func ChaosBench(g ChaosGroup, seed uint64, rate uint32, workers, iters, width int) ChaosResult {
	if len(g.Sites) > 0 {
		s := chaos.Schedule{Seed: seed}
		for _, site := range g.Sites {
			s.Rate[site] = rate
		}
		chaos.Enable(s)
		defer chaos.Disable()
	}
	r := core.New(core.Config{
		Workers:           workers,
		ThrottleOpenTasks: 2 * workers,
		Watchdog:          true,
		Debug:             true,
	})
	start := time.Now()
	sum, err := chaosProgram(r, iters, width)
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("harness: chaos workload failed under %q schedule (seed %d): %v", g.Name, seed, err))
	}
	var hits uint64
	if len(g.Sites) > 0 {
		_, h := chaos.Counts()
		for _, site := range g.Sites {
			hits += h[site]
		}
	}
	return ChaosResult{
		Wall:     wall,
		Tasks:    r.TaskCount(),
		Checksum: sum,
		Hits:     hits,
		Stalls:   len(r.StallReports()),
	}
}

// chaosProgram is the mixed workload: per iteration, a graph-region
// dependency mesh (records on the first pass, replays after — forced
// ReplayInvalidate mismatches exercise the mid-region fallback), a
// dependency-carrying parent with a nested submit and blocking taskwait,
// a worksharing sweep, and a taskgroup burst. Writers chain
// multiplicatively, so every legal schedule produces the same final state.
func chaosProgram(r *core.Runtime, iters, width int) (int64, error) {
	const elems = 64
	d0 := r.NewData("c0", elems, 8)
	d1 := r.NewData("c1", elems, 8)
	state := make([]int64, 2*elems)
	err := r.RunChecked(func(tc *core.TaskContext) {
		for it := 0; it < iters; it++ {
			mult := int64(2*it + 3)
			tc.Graph("mesh", func(tc *core.TaskContext) {
				for i := 0; i < width; i++ {
					lo := int64(i%4) * 16
					iv := core.Interval{Lo: lo, Hi: lo + 16}
					tc.Submit(core.TaskSpec{
						Label: "mesh",
						Deps: []core.Dep{
							{Data: d0, Type: core.InOut, Ivs: []core.Interval{iv}},
							{Data: d1, Type: core.In, Ivs: []core.Interval{{Lo: 0, Hi: 8}}},
						},
						Body: func(*core.TaskContext) {
							for e := iv.Lo; e < iv.Hi; e++ {
								state[e] = state[e]*mult + 1
							}
						},
					})
				}
			})
			tc.Submit(core.TaskSpec{
				Label: "parent",
				Deps:  []core.Dep{{Data: d1, Type: core.InOut, Ivs: []core.Interval{{Lo: 8, Hi: 16}}}},
				Body: func(tc *core.TaskContext) {
					tc.Submit(core.TaskSpec{
						Label: "child",
						Body: func(*core.TaskContext) {
							for e := int64(8); e < 16; e++ {
								state[elems+e] += mult
							}
						},
					})
					tc.Taskwait()
					state[elems]++
				},
			})
			tc.Worksharing(core.WorksharingSpec{
				Label: "sweep",
				Lo:    16, Hi: elems, Grain: 8,
				Deps: func(lo, hi int64) []core.Dep {
					return []core.Dep{{Data: d1, Type: core.InOut, Ivs: []core.Interval{{Lo: lo, Hi: hi}}}}
				},
				Body: func(tc *core.TaskContext, lo, hi int64) {
					for e := lo; e < hi; e++ {
						state[elems+e] += mult
					}
				},
			})
			tc.Taskgroup(func() {
				for i := 0; i < 4; i++ {
					tc.Submit(core.TaskSpec{Label: "burst", Body: func(*core.TaskContext) {}})
				}
			})
		}
	})
	var sum int64
	for i, v := range state {
		sum += v * int64(i+1)
	}
	return sum, err
}
