// Package nanos is a Go reproduction of the tasking runtime described in
// "Improving the Integration of Task Nesting and Dependencies in OpenMP"
// (Pérez, Beltran, Labarta, Ayguadé; IPDPS 2017) — the runtime the paper
// calls Nanos6.
//
// The package provides an OpenMP-4.x-style tasking model extended with the
// paper's three contributions:
//
//   - the wait-style detached completion (§IV): a task's body returns
//     immediately and the task completes when all of its descendants do —
//     no in-body taskwait required (though Taskwait is available);
//   - the weakwait clause and release directive (§V): fine-grained release
//     of dependencies across nesting levels — at body exit (or earlier, via
//     Release) each dependency region not covered by a live subtask is
//     released, and covered regions are handed over to release exactly when
//     the covering subtask finishes;
//   - weak dependency types (§VI): depend entries that link the dependency
//     domains of nesting levels without deferring the task itself, so outer
//     tasks instantiate their subtasks in parallel and the subtasks inherit
//     the incoming dependency edges. A task whose depend clause is
//     entirely weak touches no data itself — it is a creator — and the
//     default ready pool therefore starts such tasks in program order
//     (oldest first, a creator's own sub-creators before its later
//     siblings) rather than newest-first like other ready work: each
//     creator's subtasks then find their predecessors already run instead
//     of being instantiated blocked, all of them, before the first may
//     start. Together with weakwait this is what keeps a nested-weak
//     program's live task count near the number of workers' worth of
//     leaves. One strong entry in the clause opts a task out.
//
// Dependencies are declared over element intervals of registered data
// objects and may overlap partially (§VII); the engine fragments accesses
// as needed.
//
// One dependency engine enforces these semantics, in both real and virtual
// mode. It partitions all dependency state per data object and, for an
// object a program slices (NewData passes its extent on; the first access
// sets the grain, unless it is a weak or weakwait access over more than half
// of the object — its children will slice it, so it gets the per-worker
// stripe count), per stripe of its index range — each shard gets
// its own lock and cascade queue, so depend clauses over disjoint data or
// disjoint ranges register and release with no common lock, and a task's
// cross-shard readiness countdown is a bare atomic. Differential property
// tests drive it in lockstep with a single-mutex reference engine over
// random task programs to keep the two observably equivalent.
//
// The scheduler admission path is sharded the same way: real mode runs one
// ready pool, a work-stealing pool with one lock-free deque and one creator
// lane per worker and lock-free token accounting, so submitting, finishing,
// and yielding tasks on different workers never serialize on a common
// lock. Virtual mode keeps its own deterministic FIFO ready list.
//
// With the locks sharded away, the remaining steady-state cost is
// allocator and GC traffic, so task-lifecycle memory is pooled: dependency
// nodes, access fragments, and interval-map cells (and, in real mode,
// tasks) recycle through typed free lists with generation-counted handles,
// so a submit→complete cycle allocates nothing once warm. Config.Debug
// turns the pools' leak accounting into an end-of-run check.
//
// A Taskwait that finds incomplete children first runs the queued
// descendants on its own worker's deque itself; only when none is left
// does it yield its worker token into other ready work and park until the
// last child completes. Runtime.TaskwaitStats reports inlined descendants
// and parks.
//
// A minimal program:
//
//	rt := nanos.New(nanos.Config{Workers: 4})
//	x := rt.NewData("x", 1024, 8)
//	rt.Run(func(tc *nanos.TaskContext) {
//	    tc.Submit(nanos.TaskSpec{
//	        Label: "produce",
//	        Deps:  []nanos.Dep{nanos.DOut(x, nanos.Iv(0, 1024))},
//	        Body:  func(tc *nanos.TaskContext) { /* write x */ },
//	    })
//	    tc.Submit(nanos.TaskSpec{
//	        Label: "consume",
//	        Deps:  []nanos.Dep{nanos.DIn(x, nanos.Iv(0, 1024))},
//	        Body:  func(tc *nanos.TaskContext) { /* read x */ },
//	    })
//	})
package nanos

import (
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/regions"
	"repro/internal/replay"
	"repro/internal/throttle"
)

// Core vocabulary, re-exported so user code only imports this package.
type (
	// Config configures a Runtime; see the field docs in internal/core.
	Config = core.Config
	// Runtime executes one task program (single Run per Runtime).
	Runtime = core.Runtime
	// TaskContext is passed to task bodies for submitting subtasks,
	// waiting, and releasing dependencies.
	TaskContext = core.TaskContext
	// TaskSpec describes a task to submit.
	TaskSpec = core.TaskSpec
	// Dep is one depend-clause entry.
	Dep = core.Dep
	// DataID identifies a registered data object.
	DataID = core.DataID
	// Interval is a half-open element interval [Lo, Hi).
	Interval = core.Interval
	// AccessType is In, Out, or InOut.
	AccessType = core.AccessType
	// CacheConfig configures the per-worker cache simulation.
	CacheConfig = cachesim.Config
	// DepStats exposes dependency-engine activity counters.
	DepStats = deps.Stats
	// TaskError reports a panic recovered from a task body; returned by
	// Runtime.RunChecked (and re-panicked by Runtime.Run). Either way the
	// runtime drains to quiescence first: remaining bodies are skipped,
	// the throttle window empties, pooled objects recycle, and poisoned
	// graph regions invalidate their recordings.
	TaskError = core.TaskError
	// StallReport is one stall-watchdog diagnosis (Config.Watchdog arms
	// the watchdog, Runtime.StallReports returns those collected during
	// the run).
	StallReport = core.StallReport
	// WorkerState is one worker's heartbeat row in a StallReport.
	WorkerState = core.WorkerState
	// Violation is one finding of the Config.Verify lint checks.
	Violation = core.Violation
	// ViolationKind classifies a Violation.
	ViolationKind = core.ViolationKind
	// Section2D describes a rectangular section of a row-major 2-D array.
	Section2D = regions.Section2D
	// ThrottleStats exposes throttle-window activity counters
	// (Runtime.ThrottleStats).
	ThrottleStats = throttle.Stats
	// MemStats exposes the dependency engine's memory-pool counters
	// (Runtime.MemStats).
	MemStats = deps.MemStats
	// ReplayKind selects the record-and-replay taskgraph cache mode
	// (Config.Replay).
	ReplayKind = replay.Kind
	// ReplayStats exposes the record-and-replay cache counters
	// (Runtime.ReplayStats): recordings, replays, invalidations, live
	// fallbacks.
	ReplayStats = replay.Stats
	// TaskwaitStats exposes the Taskwait counters (Runtime.TaskwaitStats):
	// descendants run inline by their waiting ancestor, and parks.
	TaskwaitStats = core.TaskwaitStats
)

// Access types for Dep.Type.
const (
	In    = core.In
	Out   = core.Out
	InOut = core.InOut
	// Red is a task-reduction access (an extension beyond the paper,
	// following its future-work direction §X): reduction tasks over the
	// same region execute concurrently — their bodies must combine
	// contributions atomically — while readers and writers order against
	// the whole group, across nesting levels.
	Red = core.Red
)

// Record-and-replay modes for Config.Replay. The cache engages through
// TaskContext.Graph: the first execution of a named graph region records
// the submitted graph, and later executions with an identical dependency
// shape bypass the dependency engine, driving frozen per-task predecessor
// countdowns straight into the ready pool. Replay is transparent: shape
// changes invalidate and fall back to the live engine mid-region, and
// unfinished external producers of region inputs force a live execution.
const (
	// ReplayAuto picks on in real mode, off in virtual mode.
	ReplayAuto = replay.KindAuto
	// ReplayOff disables the cache (Graph regions keep their barrier).
	ReplayOff = replay.KindOff
	// ReplayOn enables the cache in real mode.
	ReplayOn = replay.KindOn
)

// Verification finding kinds.
const (
	// VTouch is a Touch assertion not covered by the task's strong entries.
	VTouch = core.VTouch
	// VChildCoverage is a child depend entry not covered by the parent's.
	VChildCoverage = core.VChildCoverage
)

// New creates a runtime.
func New(cfg Config) *Runtime { return core.New(cfg) }

// Iv constructs the half-open interval [lo, hi).
func Iv(lo, hi int64) Interval { return regions.Iv(lo, hi) }

// DefaultL2Cache approximates one ThunderX core's share of L2 (§VIII).
func DefaultL2Cache() CacheConfig { return cachesim.DefaultL2() }

// DefaultSharedL2Cache is the full ThunderX 16 MiB shared L2, for use with
// Config.SharedCache.
func DefaultSharedL2Cache() CacheConfig { return cachesim.DefaultSharedL2() }

// DIn builds a strong read dependency: depend(in: ...).
func DIn(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: In, Ivs: ivs}
}

// DOut builds a strong overwrite dependency: depend(out: ...).
func DOut(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: Out, Ivs: ivs}
}

// DInOut builds a strong read-write dependency: depend(inout: ...).
func DInOut(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: InOut, Ivs: ivs}
}

// DWeakIn builds a weak read dependency: depend(weakin: ...) (§VI). A task
// with only weak entries is scheduled as a creator, in program order (see
// the package comment).
func DWeakIn(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: In, Weak: true, Ivs: ivs}
}

// DWeakOut builds a weak overwrite dependency: depend(weakout: ...) (§VI).
func DWeakOut(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: Out, Weak: true, Ivs: ivs}
}

// DWeakInOut builds a weak read-write dependency: depend(weakinout: ...)
// (§VI).
func DWeakInOut(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: InOut, Weak: true, Ivs: ivs}
}

// DRed builds a task-reduction dependency: tasks in the same reduction
// group run concurrently; readers and writers order against the group.
func DRed(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: Red, Ivs: ivs}
}

// DWeakRed builds a weak reduction dependency: a linking point that lets a
// subtree contribute to an enclosing reduction group without deferring the
// task itself.
func DWeakRed(data DataID, ivs ...Interval) Dep {
	return Dep{Data: data, Type: Red, Weak: true, Ivs: ivs}
}

// BlockInterval returns the flat interval of tile (i, j) in a block-array
// layout [blocksPerSide][blocksPerSide][ts][ts] with contiguous tiles (the
// Gauss-Seidel layout of the paper's listing 6).
func BlockInterval(blocksPerSide, ts, i, j int64) Interval {
	return regions.BlockInterval(blocksPerSide, ts, i, j)
}

// Strided returns the intervals of a strided section: count runs of runLen
// elements every stride, starting at start (the prefix-sum depend shapes of
// listing 7).
func Strided(start, runLen, stride, count int64) []Interval {
	return regions.Strided(start, runLen, stride, count)
}
