package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// This file implements the task-construct clauses beyond the paper's three
// contributions: the taskgroup construct (which §IV contrasts with the wait
// clause), the final clause (OpenMP's granularity-control cutoff, which the
// recursive benchmarks of §VIII-C need to bound task overhead at the base
// case), and the error pipeline that turns task-body panics into values
// returned from RunChecked instead of crashed worker goroutines.

// TaskError reports a panic that escaped a task body. The runtime recovers
// the panic, stops invoking further task bodies, drains the dependency
// graph, and returns the first TaskError from RunChecked.
type TaskError struct {
	// Label is the failing task's TaskSpec.Label.
	Label string
	// Value is the value passed to panic.
	Value any
	// Stack is the stack trace captured at the recovery point.
	Stack []byte
}

// Error formats the failure with the task's label and the panic value.
func (e *TaskError) Error() string {
	return fmt.Sprintf("core: task %q panicked: %v", e.Label, e.Value)
}

// recordPanic stores the first task failure and switches the runtime into
// drain mode (subsequent task bodies are skipped so the run terminates).
func (r *Runtime) recordPanic(t *Task, p any) {
	err := &TaskError{Label: t.spec.Label, Value: p, Stack: debug.Stack()}
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.failed.Store(true)
}

// invokeBody runs the task body, converting a panic into a recorded error.
// Bodies are skipped entirely once a failure has been recorded: the
// remaining graph drains through the normal completion pipeline without
// executing user code.
func (r *Runtime) invokeBody(t *Task, tc *TaskContext) {
	if t.spec.Body == nil || r.failed.Load() {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			r.recordPanic(t, p)
		}
	}()
	t.spec.Body(tc)
}

// runErr returns the recorded failure, combined with the Debug-mode
// invariant checks when enabled. The checks run on the failure path too —
// RunChecked only reaches here after the graph has drained to quiescence,
// and the panic-safe drain guarantees are exactly that a failed run leaks
// nothing: skipped bodies flow through the normal completion pipeline,
// the throttle window empties, and pooled objects recycle. A *TaskError
// stays the primary error (errors.As finds it through the join); any
// violated invariant is joined after it.
func (r *Runtime) runErr() error {
	r.errMu.Lock()
	err := r.err
	r.errMu.Unlock()
	if !r.cfg.Debug {
		return err
	}
	errs := []error{err} // nil is dropped by errors.Join
	check := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("core: debug check failed: "+format, args...))
	}
	if n := r.eng.LiveFragments(); n != 0 {
		check("%d dependency fragments not released at end of run", n)
	}
	if n := r.taskCounts().live; n != 0 {
		check("%d tasks still live at end of run", n)
	}
	if st, pooled := r.eng.MemStats(); pooled {
		// Every node, access, fragment, and interval map handed out by
		// the pools must be back: a positive count means a dependency
		// object escaped its recycle point (a leak the pin protocol
		// should make impossible). Exact here because every engine
		// CompleteInto happens-before the root's completion.
		if n := st.Outstanding(); n != 0 {
			check("%d pooled dependency objects not recycled at end of run", n)
		}
	}
	if r.replayPool != nil {
		// Replay countdown nodes return to their pool at each region's
		// barrier (including invalidation fallbacks and panic aborts), all
		// of which happen-before the root's completion.
		if n := r.replayPool.Outstanding(); n != 0 {
			check("%d replay countdown nodes not recycled at end of run", n)
		}
	}
	if r.wsPool != nil {
		// Every worksharing chunk descriptor recycles in its task's
		// completeTask, which happens-before the root's completion, so a
		// positive count here is a leaked descriptor (an announce-hold
		// that never released).
		if n := r.wsPool.Outstanding(); n != 0 {
			check("%d worksharing chunk descriptors not recycled at end of run", n)
		}
	}
	if r.thr != nil {
		// Throttle conservation: every window entry must have been matched
		// by a start. A positive count is an entry never started (its slot
		// stays taken, a future admission stall); a negative one is a
		// double start. Credits() is Limit() - Open(), so this also checks
		// that every slot is free.
		if n := r.thr.Open(); n != 0 {
			check("throttle window still reports %d open tasks at end of run", n)
		}
	}
	if len(errs) == 1 {
		// No check failed: return the recorded failure (or nil) unwrapped,
		// so callers that type-assert *TaskError directly keep working.
		return err
	}
	return errors.Join(errs...)
}

// taskgroup tracks the direct tasks submitted inside one Taskgroup scope.
// Because a task in this runtime completes only after all its descendants
// have (the wait-clause completion pipeline), counting direct submissions
// gives exactly the OpenMP taskgroup guarantee: the construct waits on the
// full subtree generated in its region.
type taskgroup struct {
	mu    sync.Mutex
	count int
	done  chan struct{}
}

func (g *taskgroup) add() {
	g.mu.Lock()
	g.count++
	g.mu.Unlock()
}

func (g *taskgroup) taskCompleted() {
	g.mu.Lock()
	g.count--
	if g.count == 0 && g.done != nil {
		close(g.done)
		g.done = nil
	}
	g.mu.Unlock()
}

// Taskgroup runs body inline and then blocks until every task submitted
// within it — and, transitively, every descendant of those tasks — has
// completed. This is the OpenMP taskgroup construct that §IV contrasts with
// the wait clause: it performs a deep wait from within the task code, so
// the stack stays live, whereas the wait/weakwait clauses wait after the
// body has returned. The caller's worker token is yielded while blocked and
// reacquired afterwards. Taskgroups nest. Not available in virtual mode.
func (tc *TaskContext) Taskgroup(body func()) {
	r := tc.rt
	if r.cfg.Virtual {
		panic("core: Taskgroup is not supported in virtual mode; structure the program with WeakWait completion instead")
	}
	t := tc.task
	prev := t.curGroup
	tg := &taskgroup{}
	t.curGroup = tg
	body()
	t.curGroup = prev
	tg.mu.Lock()
	if tg.count == 0 {
		tg.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	tg.done = ch
	tg.mu.Unlock()
	r.sch.Yield(tc.worker)
	<-ch
	tc.worker = r.sch.Acquire()
}

// runInline executes an included task: a task submitted from within a final
// task region. Included tasks run immediately on the submitting worker with
// no dependency registration and no deferral — the OpenMP final-clause
// cutoff that recursive task decompositions use to stop paying per-task
// overhead below the base-case size. Program order within the final region
// trivially satisfies any dependencies the specs declare, so the depend
// entries are accepted and ignored.
func (r *Runtime) runInline(tc *TaskContext, spec TaskSpec) {
	r.ctr(tc.worker).tasks.Add(1)
	t := r.newTask(tc.task, spec, tc.worker)
	child := &TaskContext{rt: r, task: t, worker: tc.worker}
	if r.caches != nil {
		r.feedCache(t, tc.worker)
	}
	if r.v != nil {
		// Virtual mode: the included task's cost accrues to the creator's
		// busy time, exactly like its creation cost.
		cost := spec.Cost
		if cost <= 0 {
			cost = 1
		}
		tc.task.vCreate += cost
		r.invokeBody(t, child)
		if spec.Flops > 0 {
			r.flops.Add(spec.Flops)
		}
		return
	}
	var start int64
	if r.tracer != nil {
		start = r.now()
	}
	r.invokeBody(t, child)
	if r.tracer != nil {
		r.tracer.Record(child.worker, t.kind, start, r.now())
	}
	if spec.Flops > 0 {
		r.flops.Add(spec.Flops)
	}
	// An included task registers no node and tracks no children: it is
	// fully finished when its body returns, so it recycles immediately.
	r.recycleTask(t, child.worker)
}
