package core

// TaskContext.Taskwait: the help step, and the parking path behind it.
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
// A wait that still finds incomplete children parks (taskwaitParking): it
// yields its token into other ready work, sleeps on the task's reusable
// signal channel, and re-acquires a token through the scheduler's waiter
// list once the last child has signalled. With the help step in front this
// is rare: the benchmark's traced pass counts tens of parks per run against
// tens of thousands of tasks.

// TaskwaitStats counts Taskwait activity (Runtime.TaskwaitStats): the
// descendants waiting tasks ran themselves, and the waits that blocked.
// Taskwaits that find no incomplete children count nowhere.
type TaskwaitStats struct {
	// Inlined counts queued descendants a waiting task ran itself, on its
	// own goroutine and token, before (or instead of) blocking. Always zero
	// on the central queue (LIFO, Priority), whose waits block without
	// helping.
	Inlined int64
	// Parks counts blocking waits: the goroutine parked on its signal
	// channel and re-acquired a worker token through the scheduler's waiter
	// list.
	Parks int64
	// Handoffs and StealResumes counted the continuation hand-offs of a
	// blocking strategy the runtime no longer has; they always read 0. They
	// stay because the benchmark's traced pass (bench/harness.go) still
	// reports them as core.taskwait_handoffs and core.taskwait_steal_resumes.
	Handoffs     int64
	StealResumes int64
}

// TaskwaitStats returns the Taskwait counters: descendants run inline by
// their waiting ancestor, and parks.
func (r *Runtime) TaskwaitStats() TaskwaitStats {
	return TaskwaitStats{
		Inlined: r.taskCounts().inlined,
		Parks:   r.parks.Load(),
	}
}

// Taskwait blocks until all direct children (and, transitively, their
// descendants) have completed. A wait that finds incomplete children first
// helps: it runs the queued descendants on its own worker's deque inline,
// on its own goroutine and token (helpChildren). Only when none is left does
// it park, re-acquiring a token through the scheduler's waiter list — the
// cost the paper's wait clause avoids (§IV). Not available in virtual mode.
func (tc *TaskContext) Taskwait() {
	r := tc.rt
	if r.cfg.Virtual {
		panic("core: Taskwait is not supported in virtual mode; use WeakWait or the default wait-clause completion")
	}
	t := tc.task
	if t.pendingChildren() == 0 {
		return
	}
	// Recorded here, not on the blocking path: whether the wait ends up
	// blocking depends on the schedule, and the replay decision must not.
	t.markRegionTaskwait()
	if r.help != nil && r.helpChildren(tc) {
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
// the nesting tree: not a worksharing invitation (which stands for a body
// that is already running), and t is the
// ancestor exactly depth-difference steps up c's parent chain. The chain is
// safe to walk: c has not completed, so none of its ancestors has either.
func (c *Task) descendsFrom(t *Task) bool {
	if c.wsRun != nil {
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

// taskwaitParking is the blocking path: park on the task's reusable signal
// channel, re-acquire a token via the scheduler's waiter list. The signal
// channel is allocated once per task and survives both repeated waits and
// task recycling (see Task.waitSig).
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
	r.parks.Add(1)
	r.sch.Yield(tc.worker)
	<-t.waitSig
	tc.worker = r.sch.Acquire()
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
