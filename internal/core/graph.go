package core

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/deps"
	"repro/internal/replay"
)

// This file implements graph regions — the record-and-replay taskgraph
// cache (Config.Replay, internal/replay). A region names a task graph the
// program submits repeatedly (the sweep body of an iterative stencil, a
// repeated factorization): its first execution runs through the live
// dependency engine while recording every submission's dependency
// fingerprint, then seals a frozen edge set; subsequent executions whose
// submissions match the fingerprint stream skip the engine entirely and
// drive per-task atomic predecessor countdowns feeding the ready pool
// directly.
//
// The lifecycle per region name is record → validate → replay → …, with
// two escape hatches that keep replay an optimization rather than a
// semantics change:
//
//   - a union guard re-checks the region's external inputs on every
//     replay attempt: one engine access over the union of everything the
//     recorded tasks touch, registered in the owner's domain before the
//     region starts. If it is not immediately satisfied, an external
//     producer is still running and the execution falls back to the live
//     engine (Stats.Fallbacks);
//   - a fingerprint mismatch mid-region (changed deps, intervals, or task
//     count) drains the tasks already admitted by the frozen graph,
//     invalidates the recording, and finishes the region live
//     (Stats.Invalidations); the next execution re-records.
//
// Shapes the frozen completion-edge set cannot express — weakwait tasks,
// weak depend entries, nested submissions, release directives inside the
// region — are detected during recording and marked ineligible: such
// regions keep validating (so a shape change still re-records) but always
// execute live.
//
// Blocking taskwaits interact with recording in two directions (decided in
// markRegionTaskwait, taskwait.go, and tested in both): an owner-level
// taskwait between submissions keeps the recording replay-eligible — the
// barrier is owner body code re-executed identically by every execution,
// live or replayed (child counters are maintained the same way under
// replay, via admitChild/completeTask), so the frozen edge set need not
// express it; the recorder counts it as the trace of the continuation edge
// (Recording.OwnerWaits). A blocking taskwait inside a region *member*
// task implies nested submissions and marks the recording ineligible. The
// region's own end barrier is neither: Graph clears t.greg before its
// final Taskwait.

// graphMode is the execution mode of one region run.
type graphMode uint8

const (
	// gmRecord: first execution — live engine plus recording.
	gmRecord graphMode = iota
	// gmLive: live engine with fingerprint validation (ineligible
	// recording, guard fallback, or post-invalidation remainder).
	gmLive
	// gmReplay: frozen-graph execution, dependency engine bypassed.
	gmReplay
)

// graphRegion is the per-name cache slot: the sealed recording and the
// single-execution gate. Regions live for the runtime's lifetime.
type graphRegion struct {
	name string
	lane int // replay node-pool lane hint
	// busy gates the region to one execution at a time; a concurrent
	// Graph call with the same name runs live and unvalidated.
	busy sync.Mutex
	held bool
	rec  *replay.Recording // accessed only while busy is held
}

// graphRun is the state of one region execution, reachable from the owner
// task (greg) and from every task submitted into the region.
type graphRun struct {
	region *graphRegion
	owner  *Task
	mode   graphMode

	// Recording state (gmRecord).
	recorder *replay.Recorder
	edgeMu   sync.Mutex // serializes the engine edge hook into the recorder

	// Replay state (gmReplay): the sealed recording and one armed
	// countdown node per recorded task, drawn from the runtime's pool.
	frozen *replay.Recording
	nodes  []*replay.Node

	// Validation cursor: submissions seen so far, compared against the
	// recording in gmLive and gmReplay. mismatch poisons the recording
	// (it is dropped at region end, or immediately at a replay fallback).
	submitted int
	mismatch  bool
	fpBuf     replay.TaskFP // scratch for fingerprint comparison
}

// regionFor returns (creating if needed) the named region slot.
func (r *Runtime) regionFor(name string) *graphRegion {
	r.gregMu.Lock()
	defer r.gregMu.Unlock()
	if r.gregs == nil {
		r.gregs = make(map[string]*graphRegion)
	}
	g := r.gregs[name]
	if g == nil {
		g = &graphRegion{name: name, lane: len(r.gregs)}
		r.gregs[name] = g
	}
	return g
}

// Graph executes body as a named graph region: every task the body submits
// (from this task) belongs to the region, and Graph returns only after all
// of them — and, transitively, their descendants — have completed (the
// region barrier; the caller's worker token is yielded while blocked, as
// in Taskwait). Regions are the unit of the record-and-replay cache
// (Config.Replay): the first execution of a name records the submitted
// graph, and later executions that submit an identical dependency shape
// replay it with per-task predecessor countdowns instead of the dependency
// engine. Replay never changes semantics — a changed shape invalidates the
// recording mid-region and falls back to the live engine, an unfinished
// external producer of region inputs forces a live execution, and shapes
// the frozen graph cannot express (weakwait, weak entries, nested
// submissions, release directives) always run live. Region names are
// global to the runtime; the same name must describe the same logical
// graph. In virtual mode Graph runs the body inline with no barrier and no
// recording.
func (tc *TaskContext) Graph(name string, body func(tc *TaskContext)) {
	r := tc.rt
	if body == nil {
		return
	}
	if r.v != nil {
		body(tc)
		return
	}
	t := tc.task
	if t.final {
		// Included region: every submission runs inline in program order,
		// which trivially satisfies both the dependencies and the barrier.
		body(tc)
		return
	}
	if t.greg != nil {
		// Nested region (the task is already inside an active region, as
		// owner or member): the frozen graph cannot express it, so the
		// inner region runs unrecorded — still with its barrier.
		if t.greg.mode == gmRecord && t.gidx < 0 {
			t.greg.recorder.MarkIneligible("nested graph region")
		}
		body(tc)
		tc.Taskwait()
		return
	}
	if !r.replayOn {
		body(tc)
		tc.Taskwait()
		return
	}
	region := r.regionFor(name)
	region.busy.Lock()
	if region.held {
		// Same-name region already executing on another task: run live.
		region.busy.Unlock()
		body(tc)
		tc.Taskwait()
		return
	}
	region.held = true
	region.busy.Unlock()

	run := &graphRun{region: region, owner: t}
	switch {
	case region.rec == nil:
		run.mode = gmRecord
		run.recorder = replay.NewRecorder()
		r.recordingStarted()
	default:
		eligible, _ := region.rec.Eligible()
		if eligible && r.graphGuardReady(tc, region.rec) {
			run.mode = gmReplay
			run.frozen = region.rec
			run.nodes = r.replayPool.Get(run.nodes, region.rec, region.lane)
		} else {
			run.mode = gmLive
			r.repStats.fallbacks.Add(1)
		}
	}
	t.greg, t.gidx = run, -1

	// A panic unwinding out of the body skips the epilogue below; it must
	// still drain the region to its barrier (admitted tasks reference the
	// pooled countdown nodes until they complete) and release the region
	// slot, and it poisons the recording (abortRegion). The panic itself
	// keeps propagating to the task's recovery point.
	completed := false
	defer func() {
		if !completed {
			r.abortRegion(tc, run)
		}
	}()

	body(tc)

	// Region barrier: wait for every task submitted into the region (a
	// full taskwait — strictly stronger, which the union guard's soundness
	// argument relies on: when Graph returns, everything the region
	// touched has completed and released).
	t.greg = nil // submissions after the barrier belong to no region
	tc.Taskwait()
	completed = true

	// A panic in a *member* task (recovered in its invokeBody, so the
	// owner body returned normally) also poisons the region: bodies were
	// skipped from the failure point on, so the submission stream this
	// execution validated — or recorded — is not the program's real shape.
	failed := r.failed.Load()
	switch run.mode {
	case gmRecord:
		r.recordingStopped()
		if failed {
			break // a truncated recording never seals; re-record next time
		}
		region.rec = run.recorder.Seal()
		r.repStats.records.Add(1)
	case gmReplay:
		r.replayPool.Put(run.nodes, region.lane)
		run.nodes = nil
		if run.submitted != run.frozen.Len() || failed {
			// The body submitted a prefix of the recording (fewer tasks):
			// every admitted task had all its predecessors in the prefix
			// (edges point backwards in submission order), so the run was
			// correct — but the shape changed, so the recording goes.
			r.invalidate(region)
		} else {
			r.repStats.replays.Add(1)
		}
	case gmLive:
		if region.rec != nil && (run.mismatch || run.submitted != region.rec.Len() || failed) {
			r.invalidate(region)
		}
	}
	region.busy.Lock()
	region.held = false
	region.busy.Unlock()
}

// abortRegion is Graph's panic path: a panic is unwinding out of the
// region body (it will surface from Run once the whole graph has drained).
// The region still drains to its barrier — every admitted task references
// the run's pooled countdown nodes until it completes, and skipped bodies
// flow through the normal completion pipeline — then the region state is
// torn down with the recording poisoned in every mode: a partial recording
// never seals, and a sealed recording whose execution was interrupted
// mid-stream is invalidated (the shape was never validated to the end).
func (r *Runtime) abortRegion(tc *TaskContext, run *graphRun) {
	region := run.region
	tc.task.greg = nil
	tc.Taskwait()
	switch run.mode {
	case gmRecord:
		r.recordingStopped()
	case gmReplay:
		r.replayPool.Put(run.nodes, region.lane)
		run.nodes = nil
		r.invalidate(region)
	case gmLive:
		// A replay fallback that already invalidated left rec nil; only a
		// still-sealed recording needs poisoning.
		if region.rec != nil {
			r.invalidate(region)
		}
	}
	region.busy.Lock()
	region.held = false
	region.busy.Unlock()
}

// invalidate drops the region's recording (the next execution re-records).
func (r *Runtime) invalidate(region *graphRegion) {
	region.rec = nil
	r.repStats.invalidations.Add(1)
}

// submit routes one owner submission through the region. It returns true
// when the region consumed the submission (replay admission); false lets
// Submit continue on the live path.
func (g *graphRun) submit(tc *TaskContext, spec TaskSpec) bool {
	r := tc.rt
	switch g.mode {
	case gmRecord:
		specs, _ := r.convertDeps(spec.Deps, tc.worker)
		idx := g.recorder.OnSubmit(spec.WeakWait, spec.Final, specs)
		g.submitted++
		r.submitLive(tc, spec, g, idx)
		return true
	case gmReplay:
		if g.validateNext(r, tc, &spec) {
			g.replaySubmit(tc, spec, int32(g.submitted-1))
			return true
		}
		// Mismatch mid-region: drain the tasks the frozen graph already
		// admitted (their edges are complete within the admitted prefix),
		// drop the recording, and finish the region live.
		g.fallback(tc)
		return false
	default: // gmLive
		if g.region.rec != nil && !g.mismatch {
			if !g.validateNext(r, tc, &spec) {
				g.mismatch = true
			}
		} else {
			g.submitted++
		}
		return false
	}
}

// validateNext compares the next submission's fingerprint against the
// recording, advancing the cursor on a match.
func (g *graphRun) validateNext(r *Runtime, tc *TaskContext, spec *TaskSpec) bool {
	rec := g.frozen
	if rec == nil {
		rec = g.region.rec
	}
	if g.submitted >= rec.Len() {
		return false
	}
	if chaos.Force(chaos.ReplayInvalidate) {
		// Forced fingerprint mismatch: drive the mid-region invalidation
		// fallback (drain the admitted prefix, finish live, re-record on
		// the next execution) — transparent by design, and forcing it
		// under load proves it.
		return false
	}
	specs, _ := r.convertDeps(spec.Deps, tc.worker)
	g.fpBuf = replay.AppendFP(g.fpBuf[:0], spec.WeakWait, spec.Final, specs)
	if !g.fpBuf.Equal(rec.Task(g.submitted).FP) {
		return false
	}
	g.submitted++
	return true
}

// fallback transitions a replaying region to live execution after a
// fingerprint mismatch: barrier over the admitted prefix, countdown nodes
// back to the pool, recording invalidated.
func (g *graphRun) fallback(tc *TaskContext) {
	r := tc.rt
	tc.Taskwait()
	r.replayPool.Put(g.nodes, g.region.lane)
	g.nodes = nil
	g.frozen = nil
	g.mode = gmLive
	r.invalidate(g.region)
}

// replaySubmit admits one task through the frozen graph: the admission
// prologue (admitChild) is the live path's, with the recorded countdown
// cell in place of dependency registration. The submission hold it
// releases makes the attached task visible to predecessor completions;
// whichever decrement fires the countdown dispatches the task.
func (g *graphRun) replaySubmit(tc *TaskContext, spec TaskSpec, idx int32) {
	r := tc.rt
	t := r.admitChild(tc, spec)
	n := g.nodes[idx]
	t.greg, t.gidx, t.gnode = g, idx, n
	n.User = t
	// A task deferred on recorded predecessors enters the window when its
	// countdown fires, mirroring the live path's cascade admission.
	if n.Dec() {
		r.windowEnter(1, tc.worker)
		r.enqueue(t, tc.worker)
	}
}

// replaySuccessors delivers a completed replay task's countdown
// decrements and dispatches the successors that became ready, in one
// scheduler admission (mirroring dispatchAll).
func (r *Runtime) replaySuccessors(t *Task, worker int) {
	g := t.greg
	var ready []*Task
	ws := r.scratchFor(worker)
	if ws != nil {
		ready = ws.gready[:0]
	}
	for _, si := range t.gnode.Succs {
		sn := g.nodes[si]
		if sn.Dec() {
			ready = append(ready, sn.User.(*Task))
		}
	}
	if len(ready) > 0 {
		r.windowEnter(int64(len(ready)), worker)
		if len(ready) == 1 {
			r.sch.Submit(ready[0], worker)
		} else {
			// The pools copy every item out of the slice before
			// SubmitBatch returns, so the scratch is immediately reusable.
			r.sch.SubmitBatch(ready, worker)
		}
	}
	if ws != nil {
		clear(ready)
		ws.gready = ready[:0]
	}
}

// nestedSubmit handles a submission from a task that is itself a region
// member. During recording the shape is marked ineligible (the frozen
// graph cannot express descendants). Under replay the submitting task has
// no engine node: a child with a depend clause gets one for it from
// domainNode, as the root of a domain of its own. The orderings live mode
// would compute through the parent's own accesses are all vacuous at this
// point: the parent is executing, so its strong accesses are satisfied and
// create no inbound links, and shapes with weak accesses never replay.
func (g *graphRun) nestedSubmit() {
	// Runs on the region task's worker, concurrent with the owner and
	// with a replay run's fallback transition: g.recorder (set once at
	// run creation, itself concurrency-safe) stands in for g.mode.
	if g.recorder != nil {
		g.recorder.MarkIneligible("nested submission in region")
	}
}

// recordingStarted installs the engine edge hook (shared across
// concurrently recording regions).
func (r *Runtime) recordingStarted() {
	r.recMu.Lock()
	r.recCount++
	if r.recCount == 1 {
		r.eng.SetEdgeHook(r.edgeHook)
	}
	r.recMu.Unlock()
}

// recordingStopped removes the run's claim on the edge hook.
func (r *Runtime) recordingStopped() {
	r.recMu.Lock()
	r.recCount--
	if r.recCount == 0 {
		r.eng.SetEdgeHook(nil)
	}
	r.recMu.Unlock()
}

// edgeHook receives every dependency edge the engine materializes while
// some region records, and forwards intra-region edges to that region's
// recorder for the Seal-time cross-check. Cross-domain (inbound) edges
// and edges from predecessors outside the region carry no recording:
// inbound gates are satisfied before the region barrier releases (their
// waiters ran), and outside predecessors are re-checked by the union
// guard on every replay attempt.
func (r *Runtime) edgeHook(pred, succ *deps.Node, inbound bool) {
	st, _ := succ.User.(*Task)
	if st == nil || st.greg == nil || st.gidx < 0 || st.greg.recorder == nil {
		return
	}
	if inbound {
		return
	}
	pt, _ := pred.User.(*Task)
	if pt == nil || pt.greg != st.greg || pt.gidx < 0 {
		return
	}
	g := st.greg
	g.edgeMu.Lock()
	g.recorder.OnLiveEdge(pt.gidx, st.gidx)
	g.edgeMu.Unlock()
}

// graphGuardReady registers the union guard — one strong access over
// everything the recording touches, in the owner's domain — and reports
// whether it was immediately satisfied (no external producer of region
// inputs is still pending). A satisfied guard completes on the spot,
// updating the domain history exactly as a task that wrote the union
// would; an unsatisfied guard stays pending as an ordinary
// dependency-only task, so the live-fallback region tasks registered
// after it order behind the same external producers through it.
func (r *Runtime) graphGuardReady(tc *TaskContext, rec *replay.Recording) bool {
	union := rec.Union()
	if len(union) == 0 {
		return true // no dependencies anywhere in the region
	}
	guard := r.newTask(tc.task, TaskSpec{Label: "graph-guard"}, tc.worker)
	r.ctr(tc.worker).live.Add(1) // internal bookkeeping task: excluded from TaskCount
	tc.task.mu.Lock()
	tc.task.children++
	tc.task.mu.Unlock()
	guard.node = r.eng.NewNode(r.domainNode(tc.task), "graph-guard", guard)
	if !r.eng.Register(guard.node, union) {
		// Deferred: the guard will run (nil body) and complete through the
		// normal pipeline once the external producers release.
		return false
	}
	ready, completed := r.finishBody(guard, tc.worker)
	r.dispatchAll(ready, tc.worker)
	if completed {
		r.recycleTask(guard, tc.worker)
	}
	return true
}
