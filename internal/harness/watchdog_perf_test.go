package harness

import (
	"sort"
	"testing"

	"repro/internal/workloads"
)

// TestWatchdogOverhead gates the watchdog's cost on the dispatch path: the
// flat-dependency Gauss-Seidel sweep at width 4 must not run more than 25%
// slower with the watchdog on than with it off. The heartbeat is two
// worker-private atomic stores per dispatch and the monitor samples a
// handful of atomics every 2ms, so the true cost is far below the bound;
// the bound is what the measurement resolves, while a lock or syscall on
// the dispatch path still costs more than 25%. The statistic is the median
// of the on/off ratios of adjacent run pairs (pair order alternating), so a
// slow host phase — GC, or another test binary sharing the cores — shifts
// both runs of a pair and drops out. On a shared 2-vCPU host with other
// test packages running alongside, the ratio of the per-side minima over
// 21 passes ranged from 0.67 to 2.23, while this median over 61 pairs
// stayed between 0.86 and 1.14.
func TestWatchdogOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio gate; skipped in -short")
	}
	p := workloads.GSParams{N: 128, TS: 16, Iters: 8, Compute: true}
	run := func(on bool) float64 {
		res, err := workloads.RunGS(workloads.Mode{Workers: 4, Watchdog: on}, workloads.GSFlatDepend, p)
		if err != nil {
			t.Fatalf("sweep failed (watchdog=%v): %v", on, err)
		}
		return float64(res.Wall)
	}
	const pairs = 61
	const limit = 1.25
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on float64
		if i%2 == 0 {
			off, on = run(false), run(true)
		} else {
			on, off = run(true), run(false)
		}
		ratios[i] = on / off
	}
	sort.Float64s(ratios)
	ratio := ratios[pairs/2]
	t.Logf("watchdog on/off ratio %.4f (limit %.2f)", ratio, limit)
	if ratio > limit {
		t.Fatalf("watchdog overhead ratio %.4f, want <= %.2f", ratio, limit)
	}
}
