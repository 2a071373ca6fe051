package core

// Worksharing tasks: one dependency-carrying task whose body is
// chunk-distributed across idle workers.
//
// The paper's listing-5 pattern — chunked loops whose chunks carry depend
// entries — is what Taskloop expands to, and at fine grain sizes the
// per-task cost (spec copy, dependency node, throttle credit, ready-pool
// hop per chunk) dominates the chunk body. Following "Worksharing Tasks"
// (Maroñas et al.), TaskContext.Worksharing pays that cost once:
//
//   - one task is submitted through the normal engine path, carrying the
//     union depend entries of the whole iteration space — one node, one
//     throttle-window credit, one fingerprint in a recording graph region;
//   - when its body starts, the iteration space [Lo, Hi) becomes a shared
//     atomic chunk cursor, and the runtime announces the task itself into
//     the sharded ready pool (Stealing.Announce) as an invitation to every
//     idle worker; a worker that pops an invitation joins the drain instead
//     of executing a body (the runWorker intercept);
//   - owner and helpers self-schedule grain-sized chunks against the
//     cursor (one atomic add per chunk, so irregular chunk costs balance
//     across the fleet without a work-distribution plan);
//   - each invitation rides the task's own child countdown as an
//     announce-hold: a helper that finishes draining releases its hold
//     through the same countdown the completion pipeline already uses, so
//     the task completes exactly once, after the body returned and every
//     helper left — and a taskwait on the task composes for free (the last
//     hold-release wakes the parked waiter).
//
// The per-region descriptor (wsRun: cursor, bounds, body) recycles through
// a mempool lane, so steady-state execution allocates nothing. The plain
// per-chunk expansion is nanos.Taskloop; both produce identical final
// state on programs whose depend entries cover their accesses, which the
// root package's worksharing differential drives randomized programs
// through.
//
// Restrictions: chunk bodies run concurrently on workers that share the
// one task context, so a chunk body must not block (no Taskwait or
// Taskgroup) — the same restriction OpenMP places on worksharing regions.
// Chunk bodies may Submit subtasks; inside a recording graph region that
// marks the recording ineligible, like any nested submission.

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/deps"
	"repro/internal/mempool"
)

// WorksharingSpec describes a Worksharing invocation. It is the same shape
// as TaskloopSpec, but the per-range callbacks are called once with the
// whole iteration space (union depend entries, total cost/flops) where
// Taskloop calls them once per chunk — equal results for the linear shapes
// loops declare in practice.
type WorksharingSpec struct {
	// Label names the worksharing task (diagnostics, trace kind).
	Label string
	// Lo, Hi bound the iteration space [Lo, Hi).
	Lo, Hi int64
	// Grain is the iterations per self-scheduled chunk. Required (> 0).
	Grain int64
	// Deps, when non-nil, returns the depend entries covering [lo, hi).
	// It is called once with (Lo, Hi) — the union the one task registers.
	Deps func(lo, hi int64) []Dep
	// Cost, when non-nil, returns the virtual-mode cost of [lo, hi);
	// default is the range length (one cost unit per iteration).
	Cost func(lo, hi int64) int64
	// Flops, when non-nil, returns the flop count of [lo, hi) for the
	// runtime's accounting.
	Flops func(lo, hi int64) int64
	// Body executes one chunk over [lo, hi). Required. It may be invoked
	// concurrently for different chunks (on the owner and on announced
	// helpers) and must not block in Taskwait or Taskgroup.
	Body func(tc *TaskContext, lo, hi int64)
}

// WsStats counts worksharing activity (Runtime.WsStats).
type WsStats struct {
	// Regions is the number of worksharing tasks executed chunk-distributed
	// (virtual mode and final contexts run the chunks serially instead).
	Regions int64
	// Chunks is the number of grain-sized chunks executed (owner plus
	// helpers).
	Chunks int64
	// HelperChunks is the number of chunks executed by announced helpers —
	// the work the announcement actually redistributed off the owner.
	HelperChunks int64
	// Announcements is the number of helper invitations published into the
	// ready pool (at most Workers-1 per region, never more than the
	// region's remaining chunks).
	Announcements int64
}

// wsCounters is the runtime-internal atomic form of WsStats.
type wsCounters struct {
	regions, chunks, helperChunks, announced atomic.Int64
}

// wsRun is one region's pooled chunk descriptor: the shared cursor the
// owner and every helper claim grain-sized chunks from, plus the bounds
// and body they execute against it. It is published to helpers through
// Task.wsRun (ordered by the ready pool's Announce/pop pair) and recycled
// by completeTask once the countdown releases the task.
type wsRun struct {
	cursor atomic.Int64
	hi     int64
	grain  int64
	body   func(tc *TaskContext, lo, hi int64)
}

// newWsPool builds the chunk-descriptor free list (real mode only), one
// mutex lane per worker.
func newWsPool(workers int) *mempool.Pool[wsRun] {
	return mempool.NewPool(workers, func() *wsRun { return &wsRun{} })
}

// WsStats returns the worksharing counters: regions executed
// chunk-distributed, chunks executed, chunks executed by announced
// helpers, and invitations published.
func (r *Runtime) WsStats() WsStats {
	return WsStats{
		Regions:       r.wsc.regions.Load(),
		Chunks:        r.wsc.chunks.Load(),
		HelperChunks:  r.wsc.helperChunks.Load(),
		Announcements: r.wsc.announced.Load(),
	}
}

// WsPoolStats returns the chunk-descriptor free-list counters (zero in
// virtual mode). Outstanding must be zero once a run has drained: every
// descriptor returns to its pool when its task's completion countdown
// fires.
func (r *Runtime) WsPoolStats() mempool.Stats {
	if r.wsPool == nil {
		return mempool.Stats{}
	}
	return r.wsPool.Stats()
}

// Worksharing submits the iteration space [Lo, Hi) as a worksharing task
// and returns the number of grain-sized chunks. Exactly one task is
// submitted, carrying the union depend entries of the whole range; when
// its body starts, idle workers are invited through the ready pool and
// the chunks self-schedule across the fleet against a shared cursor (see
// the package comment at the top of worksharing.go). Like any Submit it
// does not wait: the region synchronizes through its depend entries, a
// Taskwait on the submitter, or the enclosing task's completion — all of
// which observe the full region (helpers ride the task's completion
// countdown).
//
// Inside a graph region the region records and replays as a single node
// (the union entries are the fingerprint). On a final (included) task and
// in virtual mode the chunks run serially inside the single task.
func (tc *TaskContext) Worksharing(spec WorksharingSpec) int {
	if spec.Grain <= 0 {
		panic("core: Worksharing requires Grain > 0")
	}
	if spec.Body == nil {
		panic("core: Worksharing requires a Body")
	}
	if spec.Hi <= spec.Lo {
		return 0
	}
	label := spec.Label
	if label == "" {
		label = "worksharing"
	}
	r := tc.rt
	nchunks := int((spec.Hi - spec.Lo + spec.Grain - 1) / spec.Grain)
	var uDeps []Dep
	if spec.Deps != nil {
		uDeps = spec.Deps(spec.Lo, spec.Hi)
	}
	ts := TaskSpec{
		Label: label,
		Kind:  label,
		Deps:  uDeps,
	}
	if spec.Cost != nil {
		ts.Cost = spec.Cost(spec.Lo, spec.Hi)
	} else {
		ts.Cost = spec.Hi - spec.Lo
	}
	if spec.Flops != nil {
		ts.Flops = spec.Flops(spec.Lo, spec.Hi)
	}
	lo, hi, grain, body := spec.Lo, spec.Hi, spec.Grain, spec.Body
	if tc.task.final || r.v != nil {
		// Included tasks complete the moment their body returns (runInline
		// tracks no children, so announce-holds cannot ride them) and the
		// virtual simulation has no fleet to announce to: run the chunks
		// serially inside the one task. The dependency shape is identical.
		ts.Body = func(btc *TaskContext) {
			for c := lo; c < hi; c += grain {
				end := c + grain
				if end > hi {
					end = hi
				}
				body(btc, c, end)
			}
		}
	} else {
		ts.Body = func(btc *TaskContext) {
			btc.rt.wsExecute(btc, lo, hi, grain, body)
		}
	}
	tc.Submit(ts)
	return nchunks
}

// wsExecute is the chunk-distributed body of a worksharing task: set up
// the pooled cursor descriptor, take announce-holds on the task's own
// child countdown, invite idle workers through the ready pool, and join
// the drain. Runs on the task's own goroutine (inside invokeBody, so a
// chunk panic on this path is already recovered there).
func (r *Runtime) wsExecute(tc *TaskContext, lo, hi, grain int64, body func(*TaskContext, int64, int64)) {
	t := tc.task
	w := tc.worker
	nchunks := (hi - lo + grain - 1) / grain
	wr := r.wsPool.Get(w)
	wr.hi, wr.grain, wr.body = hi, grain, body
	wr.cursor.Store(lo)
	r.wsc.regions.Add(1)
	helpers := int64(r.cfg.Workers - 1)
	if helpers > nchunks-1 {
		// Never invite more helpers than there are chunks beyond the
		// owner's first: a worksharing task at Workers == 1 (or with a
		// single chunk) announces nothing and degenerates to a plain task.
		helpers = nchunks - 1
	}
	if helpers > 0 {
		// Announce-holds: each invitation rides t.children exactly like an
		// outstanding child, so the completion pipeline (finishBody /
		// wsMemberDone) releases the task once, after the body returned AND
		// every invited worker left the drain — and the holds keep t alive
		// (never recycled) until the last invitation is consumed.
		t.mu.Lock()
		t.children += int(helpers)
		t.mu.Unlock()
		// Chunk bodies share t's context, and every helper may submit a
		// child with a depend clause into t's domain: open the domain here,
		// on the owner's goroutine, so the announcement publishes t.node
		// to the helpers with the descriptor and none of them creates it.
		r.domainNode(t)
		// Publish the descriptor before the announcement: a helper reads
		// t.wsRun unlocked after popping the invitation, and the pool's
		// Announce/pop pair orders this write before that read.
		t.wsRun = wr
		r.wsc.announced.Add(helpers)
		r.sch.Announce(t, int(helpers), w)
	} else {
		t.wsRun = wr // completeTask recycles the descriptor through this
	}
	r.wsDrain(tc, wr, false)
}

// wsDrain claims grain-sized chunks against the shared cursor until the
// iteration space is exhausted — the self-scheduling loop run by the owner
// and every helper. One atomic add claims a chunk, so irregular chunk
// costs balance: a worker stuck in an expensive chunk simply claims fewer.
// Once a failure is recorded the remaining chunks are claimed but their
// bodies skipped, draining the region without running user code.
func (r *Runtime) wsDrain(tc *TaskContext, wr *wsRun, helper bool) {
	hi, grain := wr.hi, wr.grain
	var n int64
	for {
		lo := wr.cursor.Add(grain) - grain
		if lo >= hi {
			break
		}
		end := lo + grain
		if end > hi {
			end = hi
		}
		if !r.failed.Load() {
			wr.body(tc, lo, end)
		}
		n++
	}
	if n > 0 {
		r.wsc.chunks.Add(n)
		if helper {
			r.wsc.helperChunks.Add(n)
		}
	}
}

// runWsHelper is the ready-pool intercept for a worksharing invitation:
// the popping worker joins t's chunk drain instead of executing a body,
// then releases its announce-hold. It runs before taskStarted — an invitation is not new work, so the throttle
// window's occupancy accounting never sees it.
func (r *Runtime) runWsHelper(t *Task, wr *wsRun, w int) int {
	r.beat(w, hbWsHelper)
	tc := &TaskContext{rt: r, task: t, worker: w}
	// Failpoint: delay between consuming the invitation and joining the
	// drain, racing the announce-hold release against the owner finishing
	// the whole iteration space alone.
	chaos.Maybe(chaos.WsAnnounceConsume)
	var start int64
	if r.tracer != nil {
		start = r.now()
	}
	r.wsDrainHelper(tc, wr)
	if r.tracer != nil {
		r.tracer.Record(tc.worker, t.kind, start, r.now())
	}
	// tc.worker may differ from w if a chunk body blocked (submitting
	// through a full throttle window yields and reacquires); the hold is
	// released on the token actually held now.
	w = tc.worker
	r.wsMemberDone(t, w)
	return w
}

// wsDrainHelper wraps a helper's drain in its own panic recovery: helper
// goroutines do not pass through invokeBody, and a chunk panic must
// convert to the recorded-error drain path, not crash the worker.
func (r *Runtime) wsDrainHelper(tc *TaskContext, wr *wsRun) {
	defer func() {
		if p := recover(); p != nil {
			r.recordPanic(tc.task, p)
		}
	}()
	r.wsDrain(tc, wr, true)
}

// wsMemberDone releases one announce-hold on t: the helper-side half of
// the completion countdown, mirroring completeTask's parent block with t
// in the parent role. The last release — whichever of finishBody (owner)
// or this (helper) sees the count hit zero after bodyDone — completes the
// task exactly once, wakes a parked waiter, and recycles the task and its
// descriptor.
func (r *Runtime) wsMemberDone(t *Task, worker int) {
	t.mu.Lock()
	t.children--
	var sig chan struct{}
	if t.children == 0 && t.waiting {
		t.waiting = false
		sig = t.waitSig
	}
	cascade := t.children == 0 && t.bodyDone && !t.completed
	if cascade {
		t.completed = true
	}
	t.mu.Unlock()
	if sig != nil {
		sig <- struct{}{}
	}
	if cascade {
		var buf []*deps.Node
		ws := r.scratchFor(worker)
		if ws != nil {
			buf = ws.ready[:0]
		}
		buf = r.completeTask(t, worker, buf)
		if ws != nil {
			ws.ready = buf
		}
		r.dispatchAll(buf, worker)
		r.recycleTask(t, worker)
	}
}
