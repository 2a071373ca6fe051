package nanos

// TaskloopSpec describes a Taskloop invocation: the iteration space
// [Lo, Hi) is split into chunks of at most Grain iterations and one task is
// submitted per chunk — the OpenMP taskloop construct, extended with
// per-chunk depend entries so chunked loops compose with the dependency
// system (the paper's listing 5 is exactly this shape, written by hand).
//
// For iteration spaces whose chunks are finer than the runtime's per-task
// cost, see Worksharing: the same spec shape executed as one
// dependency-carrying task with chunk-distributed body.
type TaskloopSpec struct {
	// Label names the chunk tasks (diagnostics, trace kind).
	Label string
	// Lo, Hi bound the iteration space [Lo, Hi).
	Lo, Hi int64
	// Grain is the maximum iterations per chunk. Required (> 0).
	Grain int64
	// Deps, when non-nil, returns the depend entries of the chunk covering
	// [lo, hi).
	Deps func(lo, hi int64) []Dep
	// Cost, when non-nil, returns a chunk's virtual-mode cost. When nil,
	// each chunk's cost defaults to its length hi-lo — one cost unit per
	// iteration, the natural unit for uniform loops. Real mode ignores
	// Cost entirely (tasks take as long as they take).
	Cost func(lo, hi int64) int64
	// Flops, when non-nil, returns a chunk's flop count for the runtime's
	// accounting.
	Flops func(lo, hi int64) int64
	// Final marks every chunk task final (its subtasks run inline).
	Final bool
	// Body executes one chunk over [lo, hi). Required.
	Body func(tc *TaskContext, lo, hi int64)
}

// Taskloop submits one task per grain-sized chunk of spec's iteration
// space, in ascending order, and returns the number of tasks submitted. It
// does not wait: like any Submit, the chunks synchronize through their
// depend entries or through the enclosing task's completion. A nil Deps
// yields independent chunks (the plain OpenMP taskloop); with Deps the
// chunks participate in the full dependency system, including weak entries
// and cross-nesting-level release.
func Taskloop(tc *TaskContext, spec TaskloopSpec) int {
	if spec.Grain <= 0 {
		panic("nanos: Taskloop requires Grain > 0")
	}
	if spec.Body == nil {
		panic("nanos: Taskloop requires a Body")
	}
	label := spec.Label
	if label == "" {
		label = "taskloop"
	}
	n := 0
	// One TaskSpec reused across every chunk: Submit copies the spec by
	// value into the task, so rebuilding it per chunk would only feed the
	// allocator. The chunk closure captures the body and its two bounds —
	// not the whole TaskloopSpec — keeping the per-chunk garbage to the
	// closure itself.
	body := spec.Body
	ts := TaskSpec{
		Label: label,
		Kind:  label,
		Final: spec.Final,
	}
	for lo := spec.Lo; lo < spec.Hi; lo += spec.Grain {
		hi := lo + spec.Grain
		if hi > spec.Hi {
			hi = spec.Hi
		}
		lo, hi := lo, hi
		ts.Body = func(tc *TaskContext) { body(tc, lo, hi) }
		if spec.Deps != nil {
			ts.Deps = spec.Deps(lo, hi)
		} else {
			ts.Deps = nil
		}
		if spec.Cost != nil {
			ts.Cost = spec.Cost(lo, hi)
		} else {
			ts.Cost = hi - lo
		}
		if spec.Flops != nil {
			ts.Flops = spec.Flops(lo, hi)
		}
		tc.Submit(ts)
		n++
	}
	return n
}
