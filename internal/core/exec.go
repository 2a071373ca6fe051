package core

import "repro/internal/deps"

// Real-mode execution: each ready task runs on its own goroutine while
// holding a worker token. A worker that completes a task prefers to run one
// of the tasks that completion just made ready (direct successor hand-off),
// which keeps the successor on the core that produced its input — the
// locality policy behind the lower L2 miss ratios of Figure 3.

// enqueue makes a ready task runnable in the current mode. from is the
// submitting worker, used by the stealing pool for deque affinity (-1 when
// no worker context applies).
func (r *Runtime) enqueue(t *Task, from int) {
	if r.v != nil {
		r.venqueue(t)
		return
	}
	r.sch.Submit(t, from)
}

// dispatchAll enqueues every ready node. Newly ready tasks enter the
// throttle window here (the window counts ready-but-unstarted tasks). In
// real mode the whole batch is admitted in one scheduler call — a release
// cascade that readies many successors pays one ready-pool lock
// acquisition, not one per edge.
func (r *Runtime) dispatchAll(nodes []*deps.Node, from int) {
	if len(nodes) == 0 {
		return
	}
	r.windowEnter(int64(len(nodes)), from)
	if r.v != nil {
		for _, n := range nodes {
			r.venqueue(n.User.(*Task))
		}
		return
	}
	if len(nodes) == 1 {
		r.sch.Submit(nodes[0].User.(*Task), from)
		return
	}
	var tasks []*Task
	ws := r.scratchFor(from)
	if ws != nil {
		tasks = ws.batch[:0]
	} else {
		tasks = make([]*Task, 0, len(nodes))
	}
	for _, n := range nodes {
		tasks = append(tasks, n.User.(*Task))
	}
	// The pools copy every item out of the slice before the submit call
	// returns, so the scratch is immediately reusable.
	r.sch.SubmitBatch(tasks, from)
	if ws != nil {
		clear(tasks)
		ws.batch = tasks[:0]
	}
}

// dispatchPreferFirst enqueues all but one ready task and returns that one
// for worker w to run next (nil if none or hand-off disabled). Among the
// readied successors it prefers one whose readiness was granted over the
// finished task's primary data object (the deps engines record the granting
// data as each node's locality hint): that successor consumes what this
// worker just produced, so running it here keeps the data warm, and the
// rest of the batch lands on this worker's shard for the other workers to
// steal. donePD is the finished task's primary data, captured by the caller
// before the completion pipeline ran (the finished node may already be
// recycled by now).
func (r *Runtime) dispatchPreferFirst(nodes []*deps.Node, w int, donePD deps.DataID, doneOK bool) *Task {
	if len(nodes) == 0 {
		return nil
	}
	if r.cfg.NoHandoff {
		r.dispatchAll(nodes, w)
		return nil
	}
	pick := 0
	if len(nodes) > 1 && doneOK {
		for i, n := range nodes {
			if i > 3 { // bounded scan: the hint is a heuristic
				break
			}
			if rd, ok := n.ReadyData(); ok && rd == donePD {
				pick = i
				break
			}
		}
	}
	next := nodes[pick].User.(*Task)
	r.windowEnter(1, w)
	nodes[pick] = nodes[0] // displaced head joins the batch
	r.dispatchAll(nodes[1:], w)
	return next
}

// runWorker is the sched spawn callback: it runs tasks until neither a
// hand-off successor nor queued work remains. The worker id is re-read
// after every task: a body that blocks (Taskwait, Taskgroup, throttle)
// yields its token and may resume holding a different one, and continuing
// with the stale id would double-release it — putting two goroutines on
// one worker and corrupting the per-worker cache and trace state.
//
// A task arriving with a chunk descriptor attached is a worksharing
// invitation (announced by wsExecute after the task's own body started):
// the worker joins the chunk drain instead of executing a body, releases
// its announce-hold, and looks for more work. The unlocked wsRun read is
// ordered by the pool's Announce/pop pair; the task's first dispatch — the
// one that runs the body — always sees wsRun nil, which is only set from
// inside the running body.
func (r *Runtime) runWorker(t *Task, w int) {
	for {
		if wr := t.wsRun; wr != nil {
			w = r.runWsHelper(t, wr, w)
			nt, ok := r.sch.Finish(w)
			if !ok {
				return
			}
			t = nt
			continue
		}
		next, cur := r.executeTask(t, w)
		w = cur
		if next == nil {
			nt, ok := r.sch.Finish(w)
			if !ok {
				return
			}
			next = nt
		}
		t = next
	}
}

// executeTask runs one task body and its completion pipeline, returning the
// hand-off successor if any and the worker the goroutine holds afterwards.
func (r *Runtime) executeTask(t *Task, w int) (*Task, int) {
	r.beat(w, hbTask)
	r.taskStarted(t, w)
	tc := &TaskContext{rt: r, task: t, worker: w}
	if r.caches != nil {
		r.feedCache(t, w)
	}
	var start int64
	if r.tracer != nil {
		start = r.now()
	}
	r.invokeBody(t, tc)
	if r.tracer != nil {
		// If the body blocked in Taskwait, the worker may have changed; the
		// span is attributed to the final worker. Benchmarks that need
		// precise per-worker busy time avoid in-body Taskwait (they use the
		// wait-clause completion instead), matching the paper's variants.
		r.tracer.Record(tc.worker, t.kind, start, r.now())
	}
	if t.spec.Flops > 0 {
		r.flops.Add(t.spec.Flops)
	}
	// The hand-off locality hint must be read before the completion
	// pipeline: completing the node may recycle it. A task with no node —
	// no depend clause, or a replayed region task, whose dependency state
	// is a frozen countdown cell — has no hint; neither has a lazy domain
	// node, which declares no access.
	var donePD deps.DataID
	var doneOK bool
	if t.node != nil {
		donePD, doneOK = t.node.PrimaryData()
	}
	worker := tc.worker
	ready, completed := r.finishBody(t, tc.worker)
	if completed {
		// Completed here, in this goroutine: nothing references t anymore
		// (cascade-completed ancestors are recycled inside completeTask).
		r.recycleTask(t, worker)
	}
	return r.dispatchPreferFirst(ready, worker, donePD, doneOK), worker
}
