// Package workloads implements the paper's three evaluation benchmarks in
// every variant of Table I:
//
//   - Multiple AXPY (§VIII-A): 20 calls of a blocked axpy over the same
//     vectors, in five variants (nest-weak-release, nest-weak, flat-depend,
//     flat-taskwait, nest-depend).
//   - Gauss-Seidel heat propagation (§VIII-B): a blocked 2-D stencil with
//     wavefront parallelism inside an iteration and across iterations, in
//     four variants.
//   - Quicksort followed by prefix sum (§VIII-C): two recursive algorithms
//     connected through fine-grained dependencies, with weak and regular
//     formulations.
//
// Every run validates its numerical result against a sequential reference.
package workloads

import (
	"fmt"
	"runtime"
	"time"

	nanos "repro"
)

// Mode selects the execution configuration shared by all benchmarks.
type Mode struct {
	// Workers is the simulated core count.
	Workers int
	// Virtual selects virtual-time execution (for core-count sweeps beyond
	// the host machine, Figures 4 and 6).
	Virtual bool
	// NoHandoff disables direct successor hand-off (locality ablation).
	NoHandoff bool
	// Trace enables span recording (needed for timelines and, in real
	// mode, effective parallelism).
	Trace bool
	// Cache enables per-worker cache simulation (Figure 3 bottom).
	Cache *nanos.CacheConfig
	// SharedCache models one shared cache instead of per-worker caches.
	SharedCache bool
	// Throttle bounds live tasks (lookahead-window ablation). 0 = off.
	Throttle int
	// SubmitCost charges the virtual-mode creator this many cost units per
	// task instantiation, modeling the runtime's creation overhead (the
	// single-generator bottleneck of Figure 4). 0 = free creation.
	SubmitCost int64
	// Replay selects the record-and-replay taskgraph cache
	// (core.Config.Replay) for the graph-region workload formulations —
	// the GSGraph Gauss-Seidel variant and the heat workload, whose
	// per-iteration sweeps run as TaskContext.Graph regions. ReplayAuto
	// resolves to on in real mode; ReplayOff runs the same regions through
	// the live engine (the before/after comparison of cmd/reproduce's
	// replay table). Variants that do not use graph regions ignore it.
	Replay nanos.ReplayKind
	// Verify enables the runtime's lint checks (Touch and child-entry
	// coverage); findings are available on Result.Runtime.Violations().
	Verify bool
	// Debug enables the runtime's end-of-run invariant checks (every
	// dependency fragment released, no live tasks); violations panic out
	// of the run.
	Debug bool
	// Watchdog enables the runtime's stall watchdog (heartbeat epochs plus
	// a sampling monitor; core.Config.Watchdog) — the overhead A/B of the
	// watchdog perf entries, and stall detection under the chaos bench.
	Watchdog bool
}

func (m Mode) config() nanos.Config {
	w := m.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return nanos.Config{
		Workers:           w,
		Virtual:           m.Virtual,
		NoHandoff:         m.NoHandoff,
		EnableTrace:       m.Trace,
		Cache:             m.Cache,
		SharedCache:       m.SharedCache,
		ThrottleOpenTasks: m.Throttle,
		Replay:            m.Replay,
		VirtualSubmitCost: m.SubmitCost,
		Verify:            m.Verify,
		Debug:             m.Debug,
		Watchdog:          m.Watchdog,
	}
}

// Result captures the measurements of one benchmark run.
type Result struct {
	// Wall is the real-mode wall-clock time of the task program.
	Wall time.Duration
	// VirtualTime is the virtual-mode makespan in cost units.
	VirtualTime int64
	// Flops is the total declared floating-point work.
	Flops int64
	// Tasks is the number of tasks executed.
	Tasks int64
	// MissRatio is the simulated cache miss ratio (0 if disabled).
	MissRatio float64
	// EffectiveParallelism is busy time over span (Figure 6's metric).
	EffectiveParallelism float64
	// Runtime gives access to the tracer and dependency stats.
	Runtime *nanos.Runtime
}

// GFlops returns Flops over the run's duration. Real mode: 1e9 flop/s.
// Virtual mode: flops per virtual cost unit — a relative throughput, only
// meaningful for comparisons at fixed total work, which is exactly how the
// scaling figures use it.
func (r Result) GFlops() float64 {
	if r.VirtualTime > 0 {
		return float64(r.Flops) / float64(r.VirtualTime)
	}
	if r.Wall > 0 {
		return float64(r.Flops) / r.Wall.Seconds() / 1e9
	}
	return 0
}

func measure(rt *nanos.Runtime, start time.Time) Result {
	return Result{
		Wall:                 time.Since(start),
		VirtualTime:          rt.VirtualTime(),
		Flops:                rt.Flops(),
		Tasks:                rt.TaskCount(),
		MissRatio:            rt.CacheMissRatio(),
		EffectiveParallelism: rt.EffectiveParallelism(),
		Runtime:              rt,
	}
}

func errf(format string, args ...any) error { return fmt.Errorf("workloads: "+format, args...) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
