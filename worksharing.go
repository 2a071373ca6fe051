package nanos

import "repro/internal/core"

// Worksharing vocabulary, re-exported so user code only imports this
// package. The construct itself is the TaskContext.Worksharing method (or
// the free Worksharing function below, for symmetry with Taskloop).
type (
	// WorksharingSpec describes a Worksharing invocation: the same shape
	// as TaskloopSpec, but executed as ONE dependency-carrying task whose
	// grain-sized chunks self-schedule across idle workers ("Worksharing
	// Tasks", Maroñas et al.). The Deps/Cost/Flops callbacks are invoked
	// once with the whole [Lo, Hi) range — the union the single task
	// registers — where Taskloop invokes them per chunk.
	WorksharingSpec = core.WorksharingSpec
	// WsStats exposes the worksharing counters (Runtime.WsStats): regions
	// executed chunk-distributed, chunks executed, helper chunks, and
	// invitations announced.
	WsStats = core.WsStats
)

// Worksharing submits spec's iteration space [Lo, Hi) as a worksharing
// task and returns the number of grain-sized chunks. Exactly one task
// registers the union depend entries through the engine (one node, one
// throttle credit, one replay fingerprint); when its body starts, the
// chunks are self-scheduled across the worker fleet against a shared
// atomic cursor, so irregular chunk costs balance without per-chunk tasks.
// Like Taskloop it does not wait: the region synchronizes through its
// depend entries, a Taskwait on the submitter, or the enclosing task's
// completion. Chunk bodies may run concurrently and must not block in
// Taskwait or Taskgroup (the OpenMP worksharing restriction).
//
// Use Worksharing where Taskloop's per-chunk tasks are finer than the
// runtime's per-task cost; keep Taskloop where individual chunks need
// distinct depend entries that downstream tasks consume at chunk
// granularity (the union entries serialize against everything the whole
// range touches).
func Worksharing(tc *TaskContext, spec WorksharingSpec) int {
	return tc.Worksharing(spec)
}
