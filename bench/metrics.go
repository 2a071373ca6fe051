package main

import (
	"slices"
)

// metricDef names one metric with its unit; BENCHMARK.json lists the same
// names and units (bench_test.go holds the two together).
type metricDef struct {
	name, unit string
}

// endToEnd are what a user of the runtime sees, measured with the wrappers
// off. fail_ratio is not among them: it is zero on a correct runtime, and a
// bound relative to zero cannot be stated, so failures are reported as the
// result's failed/attempted counts and as run.fail_ratio.
var endToEnd = []metricDef{
	{"wall_ms", "ms"},
	{"cpu_ms", "ms"},
	{"alloc_bytes_per_task", "B/task"},
	{"setup_s", "s"},
}

// perLayer come from the traced pass and the single-layer drives; the
// prefix is the layer (package) the number belongs to, "run" the whole
// program seen from outside. None carries a bound.
var perLayer = []metricDef{
	{"run.tasks", "count"},
	{"run.fail_ratio", "ratio"},
	{"run.wall_median_ms", "ms"},
	{"run.wall_tail_ms", "ms"},
	{"run.seq_ms", "ms"},
	{"run.speedup_vs_seq", "ratio"},
	{"run.wall_w1_ms", "ms"},
	{"run.par_eff", "ratio"},
	{"run.nonbody_ns_per_task", "ns"},
	{"run.gc_cycles", "count"},
	{"run.trace_overhead", "ratio"},

	{"core.submit_ns", "ns"},
	{"core.submit_busy_ms", "ms"},
	{"core.body_busy_ms", "ms"},
	{"core.ready_to_run_us", "us"},
	{"core.taskwait_ns", "ns"},
	{"core.taskwait_blocked_ms", "ms"},
	{"core.taskwait_handoffs", "count"},
	{"core.taskwait_parks", "count"},
	{"core.taskwait_steal_resumes", "count"},
	{"core.graph_call_us", "us"},
	{"core.ws_region_us", "us"},
	{"core.ws_helper_share", "ratio"},
	{"core.ws_announcements", "count"},

	{"deps.nodes_per_task", "1/task"},
	{"deps.fragments_per_task", "1/task"},
	{"deps.links_per_task", "1/task"},
	{"deps.inbounds_per_task", "1/task"},
	{"deps.grants_per_task", "1/task"},
	{"deps.handovers_per_task", "1/task"},
	{"deps.releases_per_task", "1/task"},
	{"deps.live_fragments_end", "count"},
	{"deps.register_ns", "ns"},
	{"deps.release_ns", "ns"},
	{"deps.drive_allocs_per_op", "1/op"},

	{"regions.op_ns", "ns"},
	{"regions.entries_peak", "count"},

	{"sched.migrated_share", "ratio"},
	{"sched.worker_imbalance", "ratio"},
	{"sched.chain_ns", "ns"},
	{"sched.fanout_ns", "ns"},
	{"sched.steals_per_op", "1/op"},

	{"throttle.parks", "1/ktask"},
	{"throttle.borrows", "1/ktask"},
	{"throttle.steals", "1/ktask"},
	{"throttle.handoffs", "1/ktask"},
	{"throttle.reparks", "1/ktask"},
	{"throttle.cycle_ns", "ns"},
	{"throttle.blocked_cycle_ns", "ns"},

	{"mempool.task_reuse_ratio", "ratio"},
	{"mempool.deps_reuse_ratio", "ratio"},
	{"mempool.refills_per_ktask", "1/ktask"},
	{"mempool.outstanding_end", "count"},
	{"mempool.get_put_ns", "ns"},

	{"replay.records", "count"},
	{"replay.replays", "count"},
	{"replay.invalidations", "count"},
	{"replay.fallbacks", "count"},
	{"replay.hit_ratio", "ratio"},
	{"replay.record_sweep_us", "us"},
	{"replay.replay_sweep_us", "us"},
	{"replay.fp_ns", "ns"},
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it; with twenty samples or fewer that would be the median
// or below, and the maximum is returned instead.
func tail(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) <= 20 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
