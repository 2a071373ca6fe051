package core

import (
	"sync"

	"repro/internal/deps"
	"repro/internal/replay"
	"repro/internal/trace"
)

// TaskSpec describes a task to submit.
type TaskSpec struct {
	// Label names the task for diagnostics and graph dumps.
	Label string
	// Kind groups tasks for tracing (timeline color); defaults to Label.
	Kind string
	// Deps are the depend-clause entries.
	Deps []Dep
	// Touches lists the regions the task body actually accesses, used only
	// by the cache simulator. nil falls back to the strong entries of Deps
	// (right for leaf tasks); an empty non-nil slice declares the body
	// touches nothing (right for tasks that only instantiate subtasks,
	// whose depend entries merely protect the subtasks' accesses).
	Touches []Dep
	// WeakWait selects the weakwait clause (§V): when the body returns,
	// dependencies not covered by live subtasks release immediately and the
	// rest are handed over to the subtasks. Without it the task behaves as
	// with the wait clause (§IV): the body returns, and all dependencies
	// release together once the task and every descendant completed.
	WeakWait bool
	// Final marks the task final (the OpenMP final clause): the task itself
	// is scheduled normally, but every task submitted from inside it — and
	// inside any of its descendants — is *included*: executed immediately
	// and inline by the submitting worker, with no dependency registration
	// or deferral. Recursive decompositions use this as the granularity
	// cutoff below which per-task overhead is not worth paying.
	Final bool
	// Cost is the task's duration in virtual-time units (virtual mode
	// only); defaults to 1.
	Cost int64
	// Flops is added to the runtime's flop counter when the task runs.
	Flops int64
	// Body is the task code. It may be nil (dependency-only task).
	Body func(tc *TaskContext)
}

// Task is a submitted task instance.
type Task struct {
	rt   *Runtime
	spec TaskSpec
	node *deps.Node

	parent *Task
	depth  int
	kind   trace.Kind
	final  bool       // this task and all descendants run their subtasks inline
	group  *taskgroup // enclosing Taskgroup scope at submission, if any

	// curGroup is the innermost active Taskgroup scope of the body. It is
	// only touched by the goroutine executing the body.
	curGroup *taskgroup

	// greg/gidx tie the task to an active graph region (TaskContext.Graph):
	// on the region owner greg is the run whose body is executing (gidx
	// -1); on a task submitted into the region, greg/gidx identify its
	// recorded slot. gnode is the task's replay countdown cell when the
	// region executes from a recording (its dependency state then lives
	// there instead of in an engine node, and node stays nil unless the
	// body submits subtasks). All three are written at submission time and
	// read by the completion pipeline.
	greg  *graphRun
	gidx  int32
	gnode *replay.Node

	mu        sync.Mutex
	children  int // direct children not yet fully complete
	bodyDone  bool
	completed bool
	// waiting/waitSig serve a blocking Taskwait: the blocked body goroutine
	// parks on waitSig (capacity 1) and the last completing child signals
	// it. The channel is allocated on the task's first blocking wait and
	// then reused across waits *and* recycles (it is always empty when the
	// wait returns), so the steady-state parking path allocates nothing.
	waiting bool
	waitSig chan struct{}
	// wsRun is the worksharing chunk descriptor: set by the running body
	// (wsExecute) before announcing helper invitations, read by runWorker
	// (unlocked — ordered by the pool's Announce/pop pair) to
	// route popped invitations into the chunk drain, and recycled by
	// completeTask. nil on every task that is not an executing worksharing
	// region.
	wsRun *wsRun

	vEnd     int64 // virtual mode: completion time
	vCreate  int64 // virtual mode: accumulated creation cost of the body
	vArrival int64 // virtual mode: earliest start (creation-time modeling)
}

// newTask builds a task, recycling a pooled one when the submitting worker
// has a scratch lane (real mode, in-range worker).
func (r *Runtime) newTask(parent *Task, spec TaskSpec, worker int) *Task {
	var t *Task
	if ws := r.scratchFor(worker); ws != nil && parent != nil {
		t = ws.tasks.Get()
		t.rt, t.spec, t.parent = r, spec, parent
	} else {
		t = &Task{rt: r, spec: spec, parent: parent}
	}
	if parent != nil {
		t.depth = parent.depth + 1
		t.final = spec.Final || parent.final
	} else {
		t.final = spec.Final
	}
	if r.tracer != nil {
		kind := spec.Kind
		if kind == "" {
			kind = spec.Label
		}
		t.kind = r.tracer.KindID(kind)
	}
	return t
}

// recycleTask returns a finished task to worker's free-list lane. Callers
// must hold worker's token and guarantee nothing references t anymore: the
// task has completed (or ran inline), its completion bookkeeping — parent
// counters, taskgroup, waiters, trace span — is done, and its dependency
// node (recycled separately by the engine) is never read through the task
// again. The root task and virtual-mode tasks are never pooled.
func (r *Runtime) recycleTask(t *Task, worker int) {
	ws := r.scratchFor(worker)
	if ws == nil || t.parent == nil {
		return
	}
	t.rt, t.spec, t.node = nil, TaskSpec{}, nil
	t.parent = nil
	t.depth, t.kind, t.final = 0, 0, false
	t.group, t.curGroup = nil, nil
	t.greg, t.gidx, t.gnode = nil, 0, nil
	t.children = 0
	t.bodyDone, t.completed = false, false
	t.waiting = false
	t.wsRun = nil
	// waitSig is deliberately kept: it is empty again by the time the task
	// can recycle, and reusing it keeps repeat blocking waits allocation-free
	// (TestMemPoolAllocGate in this package gates this).
	t.vEnd, t.vCreate, t.vArrival = 0, 0, 0
	ws.tasks.Put(t)
}

// TaskContext is passed to every task body: it submits subtasks, waits, and
// releases dependencies. It must not escape the body invocation, except
// that Submit/Taskwait/Release may be called at any point within it.
type TaskContext struct {
	rt     *Runtime
	task   *Task
	worker int
}

// Runtime returns the owning runtime.
func (tc *TaskContext) Runtime() *Runtime { return tc.rt }

// Worker returns the worker (simulated core) currently executing the task.
func (tc *TaskContext) Worker() int { return tc.worker }

// Depth returns the nesting depth (root body = 0).
func (tc *TaskContext) Depth() int { return tc.task.depth }

// Submit creates a child task of the current task. Its dependencies are
// computed in the current task's domain; it starts once all its strong
// entries are satisfied. Inside an active graph region (Graph) the
// submission is additionally recorded, validated against the region's
// recording, or — when the region replays — admitted through the frozen
// countdown graph instead of the dependency engine.
func (tc *TaskContext) Submit(spec TaskSpec) {
	r := tc.rt
	if r.cfg.Verify {
		r.verifyChildCoverage(tc.task, &spec)
	}
	if tc.task.final {
		r.runInline(tc, spec)
		return
	}
	if g := tc.task.greg; g != nil {
		if tc.task.gidx >= 0 {
			// The submitter is itself a region task: a nested submission
			// the frozen graph cannot express.
			g.nestedSubmit(r, tc.task)
		} else if g.submit(tc, spec) {
			return
		}
	}
	r.submitLive(tc, spec, nil, 0)
}

// admitChild runs the admission prologue shared by the live and replay
// submission paths: the throttle gate (the reservation may block, yielding
// this worker's token into other ready work and reacquiring one — possibly
// different — before returning), task construction, and the liveness,
// count, taskgroup, and parent-children bookkeeping.
func (r *Runtime) admitChild(tc *TaskContext, spec TaskSpec) *Task {
	if r.thr != nil {
		tc.worker, _ = r.thr.Reserve(tc.worker, r.sch)
	}
	t := r.newTask(tc.task, spec, tc.worker)
	if r.v != nil && r.cfg.VirtualSubmitCost > 0 {
		tc.task.vCreate += r.cfg.VirtualSubmitCost
		t.vArrival = r.v.now + tc.task.vCreate
	}
	c := r.ctr(tc.worker)
	c.live.Add(1)
	c.tasks.Add(1)
	if grp := tc.task.curGroup; grp != nil {
		t.group = grp
		grp.add()
	}
	tc.task.mu.Lock()
	tc.task.children++
	tc.task.mu.Unlock()
	return t
}

// submitLive is the dependency-engine submission path. g/gidx tag the task
// as a member of a recording graph region (nil outside regions and in
// replayed regions, whose tasks never reach this path).
func (r *Runtime) submitLive(tc *TaskContext, spec TaskSpec, g *graphRun, gidx int32) {
	t := r.admitChild(tc, spec)
	if g != nil {
		t.greg, t.gidx = g, gidx
	}
	t.node = r.eng.NewNode(tc.task.node, spec.Label, t)
	specs, creator := r.convertDeps(spec.Deps, tc.worker)
	if spec.WeakWait && len(specs) > 0 {
		// Its children take its ranges over: the engine must not read them
		// as the grain of the objects (deps.Node.MarkWeakWait).
		t.node.MarkWeakWait()
	}
	// Only a ready child enters the window now; one deferred on its
	// dependencies enters through the cascade that readies it.
	if r.eng.Register(t.node, specs) {
		r.windowEnter(1, tc.worker)
		// A creator waits in the lane as a ready task like any other: it
		// holds its window slot until a worker starts it (taskStarted).
		if creator && r.v == nil {
			r.sch.SubmitCreator(t, tc.worker)
		} else {
			r.enqueue(t, tc.worker)
		}
	}
}

// Release implements the release directive (§V): the task asserts that
// neither it nor any future subtask will reference the given regions again.
// Covered regions still in use by live subtasks are handed over; the rest
// release immediately. On an included task (inside a final region) Release
// is a no-op: included tasks register no dependencies.
func (tc *TaskContext) Release(ds ...Dep) {
	// A region task's body may run concurrently with the owner's further
	// submissions, so the check reads g.recorder (immutable after run
	// creation; non-nil exactly while recording) rather than g.mode.
	if g := tc.task.greg; g != nil && tc.task.gidx >= 0 && g.recorder != nil {
		// Early release by a region task shifts when successors may start;
		// the frozen completion-edge graph cannot reproduce it, so the
		// recorded shape stays live. (Replayed region tasks have no engine
		// node and fall through to the no-op below.)
		g.recorder.MarkIneligible("release directive in region task")
	}
	if tc.task.node == nil {
		return
	}
	r := tc.rt
	var buf []*deps.Node
	ws := r.scratchFor(tc.worker)
	if ws != nil {
		buf = ws.ready[:0]
	}
	specs, _ := r.convertDeps(ds, tc.worker)
	ready := r.eng.ReleaseRegionsInto(tc.task.node, specs, buf)
	if ws != nil {
		ws.ready = ready[:0]
	}
	r.dispatchAll(ready, tc.worker)
}

// windowEnter records n tasks entering the throttle window (submissions
// that passed Reserve, and dependency-cascade admissions, which never block
// and may overdraw the bound): the occupancy diagnostic and the window's
// own accounting move together — every entry point must use this helper so
// the two counters cannot drift. worker is the caller's held token (-1 for
// none).
func (r *Runtime) windowEnter(n int64, worker int) {
	r.ctr(worker).open.Add(n)
	if r.thr != nil {
		r.thr.Entered(n)
	}
}

// taskStarted retires the task from the throttle window (it is now
// executing, no longer "instantiated ahead"). worker is the starting
// worker (-1 in virtual mode, whose window is inert).
func (r *Runtime) taskStarted(t *Task, worker int) {
	if t.parent == nil {
		return
	}
	r.ctr(worker).open.Add(-1)
	if r.thr != nil {
		r.thr.Started(worker)
	}
}

// finishBody runs the post-body completion pipeline shared by both modes:
// weakwait hand-over, then (if no children remain) full completion,
// cascading to ancestors. Returns the dependency-ready nodes uncovered
// (in real mode these land in worker's ready scratch, valid
// until the worker's next completion point) and whether t completed — the
// caller's signal that, once it stops touching t, the task can recycle.
// worker is the caller's held token (-1 in virtual mode).
func (r *Runtime) finishBody(t *Task, worker int) (ready []*deps.Node, completed bool) {
	var buf []*deps.Node
	ws := r.scratchFor(worker)
	if ws != nil {
		buf = ws.ready[:0]
	}
	if t.spec.WeakWait && t.node != nil {
		buf = r.eng.BodyDoneInto(t.node, buf)
	}
	t.mu.Lock()
	t.bodyDone = true
	complete := t.children == 0 && !t.completed
	if complete {
		t.completed = true
	}
	t.mu.Unlock()
	if complete {
		buf = r.completeTask(t, worker, buf)
	}
	if ws != nil {
		ws.ready = buf // keep the grown capacity for the next completion
	}
	return buf, complete
}

// completeTask finalizes a fully-finished task (body + all descendants):
// the engine releases its remaining dependencies (possibly recycling the
// node — t.node must not be touched afterwards), the live-task accounting
// is updated, and completion cascades to the parent when this was its last
// outstanding child. Ancestors completed by the cascade are recycled here:
// their own worker goroutines are long gone (a cascade parent's body
// finished without a taskwait), so this goroutine is the last to see them.
// Ready nodes are appended to buf.
func (r *Runtime) completeTask(t *Task, worker int, buf []*deps.Node) []*deps.Node {
	if wr := t.wsRun; wr != nil {
		// A completed worksharing region: every announce-hold has been
		// released (holds ride t.children, which is zero here) and the
		// cursor is exhausted, so nothing references the chunk descriptor
		// anymore. Detach and recycle it before the task itself can.
		t.wsRun = nil
		wr.body = nil
		r.wsPool.Put(worker, wr)
	}
	if t.gnode != nil {
		// A replayed region task: its completion decrements the recorded
		// successors' countdowns (dispatching the ones that fire) before
		// the parent bookkeeping below can unblock the region barrier.
		r.replaySuccessors(t, worker)
	}
	if t.node != nil {
		buf = r.eng.CompleteInto(t.node, buf)
	}
	if t.parent == nil {
		close(r.rootDone)
		return buf
	}
	r.ctr(worker).live.Add(-1)
	if g := t.group; g != nil {
		g.taskCompleted()
	}
	p := t.parent
	p.mu.Lock()
	p.children--
	var sig chan struct{}
	if p.children == 0 && p.waiting {
		p.waiting = false
		sig = p.waitSig
	}
	// A parked waiter implies the parent's body has not returned, so cascade
	// and the wakeup below are mutually exclusive.
	cascade := p.children == 0 && p.bodyDone && !p.completed
	if cascade {
		p.completed = true
	}
	p.mu.Unlock()
	if sig != nil {
		// Capacity 1 with a single consumer: the send never blocks.
		sig <- struct{}{}
	}
	if cascade {
		buf = r.completeTask(p, worker, buf)
		r.recycleTask(p, worker)
	}
	return buf
}
