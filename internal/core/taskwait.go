package core

// TaskContext.Taskwait: the help step, and the two blocking strategies
// behind it (Config.TaskwaitImpl).
//
// The paper's wait clause exists precisely because an in-body taskwait
// costs a worker (§IV): the classic implementation yields the worker
// token, parks the goroutine on a channel, and re-acquires a token through
// the scheduler's waiter list when the last child completes — a park plus
// a token round-trip per nested sync point.
//
// Most waits need neither. As OpenMP runtimes do, a waiting task first runs
// the queued tasks it is waiting for itself (helpChildren): the newest items
// of its own worker's deque, on its own goroutine and token, as long as
// each descends from it (the task scheduling constraint). On the stealing
// pool a recursive program's children are mostly still on that deque when
// the wait starts, so the wait finishes without a goroutine hand-off. The
// central queue (LIFO, Priority) offers no owner-only pop, and its waits
// always block.
//
// A wait that still finds incomplete children blocks. Following "Advanced
// Synchronization Techniques for Task-based Runtime Systems" (Álvarez et
// al.), the continuation strategy removes the blocking from the token
// protocol entirely:
//
//   - the waiting task's remainder (its parked goroutine, holding the
//     body's live stack) is represented by a pooled continuation node
//     attached to the task;
//   - the task itself is submitted into the sharded ready pools by the
//     *last completing child* — the same admission path every ready task
//     takes — and competes for a worker like any other work;
//   - the worker that pulls the continuation hands its token directly to
//     the parked goroutine (one buffered-channel send) and retires; the
//     resumed body continues on that token.
//
// No scheduler waiter list, no per-wait channel allocation, and no
// throttle-window interaction: a resuming taskwait is not a new ready
// task, so the continuation is submitted without windowEnter and
// intercepted in runWorker before taskStarted — the window's occupancy
// counters never see it. The parking strategy is kept as the differential
// reference (Config.TaskwaitImpl = TaskwaitParking); both paths share the
// same child-countdown state under Task.mu, so the differential suite can
// drive identical programs through both and compare every observable. The
// help step is the same for both and comes before either.

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/mempool"
)

// TaskwaitKind selects the Taskwait blocking strategy
// (Config.TaskwaitImpl).
type TaskwaitKind uint8

const (
	// TaskwaitAuto lets the runtime pick: continuation handoff in real
	// mode. Virtual mode has no Taskwait (it panics there) and resolves to
	// the parking reference, which builds no pool.
	TaskwaitAuto TaskwaitKind = iota
	// TaskwaitParking is the classic reference: the waiter yields its
	// worker token, parks on the task's signal channel, and re-acquires a
	// token through the scheduler's waiter list when the last child
	// completes.
	TaskwaitParking
	// TaskwaitContinuation is the wait-free strategy: the last completing
	// child submits the waiting task into the sharded ready pools as a
	// pooled continuation, and the worker that pulls it hands its token
	// straight to the parked goroutine.
	TaskwaitContinuation
)

// String returns the kind's flag/table name.
func (k TaskwaitKind) String() string {
	switch k {
	case TaskwaitParking:
		return "parking"
	case TaskwaitContinuation:
		return "continuation"
	}
	return "auto"
}

// TaskwaitStats counts Taskwait activity (Runtime.TaskwaitStats): the
// descendants waiting tasks ran themselves, and the waits that blocked.
// Taskwaits that find no incomplete children count nowhere.
type TaskwaitStats struct {
	// Inlined counts queued descendants a waiting task ran itself, on its
	// own goroutine and token, before (or instead of) blocking. Either
	// strategy; always zero on the central queue (LIFO, Priority), whose
	// waits block without helping.
	Inlined int64
	// Parks counts parking-strategy blocking waits: the goroutine parked
	// on its signal channel and re-acquired a worker token through the
	// scheduler's waiter list. Zero under the continuation strategy.
	Parks int64
	// Handoffs counts continuation-strategy blocking waits: the last
	// completing child submitted the waiting task into the ready pools as
	// a continuation. Zero under the parking strategy.
	Handoffs int64
	// StealResumes counts continuations resumed on a worker other than the
	// one the last completing child submitted from — the continuation was
	// stolen or drained by another worker's Finish, redistributing the
	// resume exactly like any other ready task.
	StealResumes int64
}

// twStats is the runtime-internal atomic form of TaskwaitStats.
type twStats struct {
	parks, handoffs, stealResumes atomic.Int64
}

// contNode is one pooled taskwait continuation: the stand-in for a parked
// waiter while its resume rides the ready pools. The resume channel is
// allocated once per node and reused across recycles (it is always empty
// when the node returns to the pool: every send is consumed by the parked
// goroutine before it releases the node).
type contNode struct {
	// resume delivers the resuming worker token to the parked goroutine
	// (capacity 1: the sender never blocks).
	resume chan int
	// from is the worker the last completing child submitted the
	// continuation from (steal-resume accounting; -1 until set).
	from int32
}

// newContPool builds the continuation-node free list (continuation
// strategy only), one mutex lane per worker.
func newContPool(workers int) *mempool.Pool[contNode] {
	return mempool.NewPool(workers, func() *contNode {
		return &contNode{resume: make(chan int, 1), from: -1}
	})
}

// TaskwaitStats returns the Taskwait counters: descendants run inline by
// their waiting ancestor, parks (parking strategy), continuation handoffs,
// and steal-resumes (continuations resumed on a different worker than they
// were submitted from).
func (r *Runtime) TaskwaitStats() TaskwaitStats {
	return TaskwaitStats{
		Inlined:      r.taskCounts().inlined,
		Parks:        r.tw.parks.Load(),
		Handoffs:     r.tw.handoffs.Load(),
		StealResumes: r.tw.stealResumes.Load(),
	}
}

// ContPoolStats returns the continuation-node free-list counters (zero
// under the parking strategy or in virtual mode). Outstanding must be zero
// once a run has drained: every resumed waiter returns its node before its
// body continues, and every blocked waiter resumes before its subtree can
// complete.
func (r *Runtime) ContPoolStats() mempool.Stats {
	if r.contPool == nil {
		return mempool.Stats{}
	}
	return r.contPool.Stats()
}

// Taskwait blocks until all direct children (and, transitively, their
// descendants) have completed. A wait that finds incomplete children first
// helps: it runs the queued descendants on its own worker's deque inline,
// on its own goroutine and token (helpChildren). It blocks only when none
// is left. Under the default continuation strategy the caller's worker
// token is then yielded into other ready work and the resume is submitted
// into the ready pools by the last completing child — the token protocol
// never parks (Config.TaskwaitImpl, Runtime.TaskwaitStats). Under the
// parking reference the goroutine parks and re-acquires a token through the
// scheduler's waiter list — the cost the paper's wait clause avoids (§IV).
// Not available in virtual mode.
func (tc *TaskContext) Taskwait() {
	r := tc.rt
	if r.cfg.Virtual {
		panic("core: Taskwait is not supported in virtual mode; use WeakWait or the default wait-clause completion")
	}
	t := tc.task
	if t.pendingChildren() == 0 {
		return
	}
	// Recorded here, not on the blocking paths: whether the wait ends up
	// blocking depends on the schedule, and the replay decision must not.
	t.markRegionTaskwait()
	if r.help != nil && r.helpChildren(tc) {
		return
	}
	if r.twKind == TaskwaitContinuation {
		r.taskwaitContinuation(tc)
		return
	}
	r.taskwaitParking(tc)
}

// pendingChildren returns the number of t's direct children not yet
// complete.
func (t *Task) pendingChildren() int {
	t.mu.Lock()
	n := t.children
	t.mu.Unlock()
	return n
}

// helpChildren is Taskwait's help step: while the waiting task has
// incomplete children, pop the newest item of the waiter's own deque and, if
// it is a plain descendant of the waiter, run it inline on the waiter's
// goroutine and token — and after it the hand-off successor its completion
// picked, when that one descends from the waiter too (any other successor
// goes back to the pool). It reports whether the children are all complete;
// false means the deque ran dry or its newest item is not the waiter's to
// run (put back), and the wait must block.
//
// Descendants only — OpenMP's task scheduling constraint for tied tasks —
// is what makes this safe: everything a descendant waits for, the waiter
// waits for anyway, since a task completes only after its whole subtree.
// A ready non-descendant carries no such bound. Its children may wait on a
// release the waiter makes only after the wait returns, and run inline it
// would park on top of the waiter's frame, which then never returns
// (TestTaskwaitInlineDescendantsOnly builds exactly that shape).
func (r *Runtime) helpChildren(tc *TaskContext) bool {
	t := tc.task
	for t.pendingChildren() > 0 {
		c, ok := r.help.PopOwn(tc.worker)
		if !ok {
			return false
		}
		if !c.descendsFrom(t) {
			r.help.PutBack(c, tc.worker)
			return false
		}
		for c != nil {
			r.ctr(tc.worker).inlined.Add(1)
			c, tc.worker = r.executeTask(c, tc.worker)
			if c != nil && !c.descendsFrom(t) {
				r.sch.Submit(c, tc.worker)
				c = nil
			}
		}
	}
	return true
}

// descendsFrom reports whether the queued task c is a plain task below t in
// the nesting tree: not a resuming taskwait continuation nor a worksharing
// invitation (both stand for a body that is already running), and t is the
// ancestor exactly depth-difference steps up c's parent chain. The chain is
// safe to walk: c has not completed, so none of its ancestors has either.
func (c *Task) descendsFrom(t *Task) bool {
	if c.cont != nil || c.wsRun != nil {
		return false
	}
	d := c.depth - t.depth
	if d <= 0 {
		return false
	}
	for ; d > 0; d-- {
		c = c.parent
	}
	return c == t
}

// taskwaitParking is the reference blocking path: park on the task's
// reusable signal channel, re-acquire a token via the scheduler's waiter
// list. The signal channel is allocated once per task and survives both
// repeated waits and task recycling (see Task.waitSig).
func (r *Runtime) taskwaitParking(tc *TaskContext) {
	t := tc.task
	t.mu.Lock()
	if t.children == 0 {
		t.mu.Unlock()
		return
	}
	if t.waitSig == nil {
		t.waitSig = make(chan struct{}, 1)
	}
	t.waiting = true
	t.mu.Unlock()
	r.tw.parks.Add(1)
	r.sch.Yield(tc.worker)
	<-t.waitSig
	tc.worker = r.sch.Acquire()
}

// taskwaitContinuation is the wait-free blocking path: attach a pooled
// continuation node, yield the token into other ready work, and park until
// the resume — submitted into the ready pools by the last completing
// child — delivers a (possibly different) worker token directly.
func (r *Runtime) taskwaitContinuation(tc *TaskContext) {
	t := tc.task
	t.mu.Lock()
	if t.children == 0 {
		t.mu.Unlock()
		return
	}
	cn := r.contPool.Get(tc.worker)
	cn.from = -1
	t.cont = cn
	t.mu.Unlock()
	r.sch.Yield(tc.worker)
	w := <-cn.resume
	r.beat(w, hbResume)
	// The resumer stopped touching the node before its send, and nothing
	// else references it: detach and recycle.
	t.cont = nil
	r.contPool.Put(w, cn)
	tc.worker = w
}

// submitContinuation is the last completing child's final act towards its
// parent: publish the resume into the sharded ready pools, where it
// competes for a worker like any other ready task (and may be stolen).
// worker is the child's held token. The submission deliberately skips
// windowEnter — a resuming taskwait re-occupies no throttle-window slot —
// and runWorker intercepts the task before taskStarted, so the window's
// occupancy accounting never sees the continuation at all.
func (r *Runtime) submitContinuation(p *Task, cn *contNode, worker int) {
	cn.from = int32(worker)
	r.tw.handoffs.Add(1)
	r.sch.Submit(p, worker)
}

// resumeContinuation hands worker w's token to the goroutine parked in t's
// taskwait. Called by runWorker when the ready pool delivers a task whose
// cont field is set; the calling goroutine must exit without touching the
// token (or the node) again — ownership of both transfers with the send.
func (r *Runtime) resumeContinuation(t *Task, cn *contNode, w int) {
	if int(cn.from) != w {
		r.tw.stealResumes.Add(1)
	}
	// Failpoint: delay the token hand-off while the waiter's subtree
	// completions (and rival pool traffic) race ahead of the resume.
	chaos.Maybe(chaos.TaskwaitIntercept)
	cn.resume <- w
}

// markRegionTaskwait records the record-and-replay interaction of a
// taskwait that finds incomplete children — whether it then helps or
// blocks — while the enclosing graph region is recording. Two
// directions, decided here (and tested in both):
//
//   - owner-level taskwait (gidx < 0, the region owner's body between
//     submissions): the recording stays replay-eligible. The wait is part
//     of the owner's body code, so every later execution — live or
//     replayed — re-executes the same barrier at the same point in the
//     submission stream; the frozen edge set need not express it. The
//     recorder keeps a count (Recording.OwnerWaits) as the recorded trace
//     of the continuation edge.
//   - taskwait inside a region member task (gidx >= 0): a wait with
//     children implies the member submitted nested children, a shape the frozen
//     completion-edge graph cannot express; the recording is marked
//     ineligible (nestedSubmit already marks it when the children were
//     submitted — this keeps the invariant even if that path changes).
//
// The region barrier itself is not routed here: Graph clears t.greg before
// its final Taskwait.
func (t *Task) markRegionTaskwait() {
	g := t.greg
	if g == nil || g.recorder == nil {
		return
	}
	if t.gidx >= 0 {
		g.recorder.MarkIneligible("taskwait in region task")
		return
	}
	g.recorder.OnOwnerWait()
}
