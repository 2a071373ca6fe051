// Package core implements the tasking runtime that realizes the paper's
// extensions: tasks with strong and weak dependencies (§VI), the wait-style
// detached completion (§IV), the weakwait clause with fine-grained release
// of dependencies across nesting levels (§V), the release directive, and an
// in-body Taskwait.
//
// Two execution modes share all of the dependency semantics:
//
//   - Real mode: goroutine-per-task gated by worker tokens (one per
//     simulated core). Used for the wall-clock benchmarks (Figures 3–5, 7).
//   - Virtual mode: a discrete-event simulation where each task occupies a
//     virtual core for its declared Cost. Used for the strong-scaling
//     figures (4, 6) so that core counts beyond the host machine's can be
//     evaluated, exactly as the paper sweeps 4–48 ThunderX cores.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cachesim"
	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/regions"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/throttle"
	"repro/internal/trace"
)

// Re-exported dependency vocabulary so runtime users need only this package.
type (
	// DataID identifies a registered data object.
	DataID = deps.DataID
	// AccessType is the depend-clause entry type (In, Out, InOut).
	AccessType = deps.AccessType
	// Interval is a half-open element interval of a data object.
	Interval = regions.Interval
)

// Access types.
const (
	In    = deps.In
	Out   = deps.Out
	InOut = deps.InOut
	// Red is a task-reduction access: members of a reduction group over
	// the same region run concurrently (the body must combine its
	// contribution atomically); readers and writers order against the
	// whole group. Integrates with weak accesses and weakwait (§X).
	Red = deps.Red
)

// Dep is one depend-clause entry of a task.
type Dep struct {
	// Data is the accessed data object (from Runtime.NewData).
	Data DataID
	// Type is the access type (In, Out, InOut, or Red).
	Type AccessType
	// Weak marks the weakin/weakout/weakinout variants (§VI): the entry
	// links nesting levels but never defers the task itself.
	Weak bool
	// Ivs are the accessed element intervals (disjoint).
	Ivs []Interval
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of simulated cores (worker tokens / virtual
	// cores). Defaults to 1 if zero.
	Workers int
	// NoHandoff disables direct successor hand-off: by default, a worker
	// that finishes a task immediately runs one of the tasks its completion
	// made ready. This is the locality policy §VIII-A credits for the lower
	// cache miss ratio of the weak variants.
	NoHandoff bool
	// ThrottleOpenTasks bounds the number of dependency-ready tasks
	// awaiting execution; submitters block (yielding their worker) above
	// the bound. 0 disables. This models a bounded lookahead window (§III's
	// discussion). Only ready tasks count — a ready task needs nothing but
	// a worker token, so the window always drains and a blocked submitter
	// always wakes. (Counting all instantiated tasks would deadlock nested
	// weak programs: a task can be dependency-blocked on fragments that
	// release only when its blocked submitter's own body finishes.)
	// Real mode runs the mutex+cond window of internal/throttle; virtual
	// mode never blocks submitters. The bound is checked before a
	// submission enters, so submitters that pass the check at once each
	// enter: occupancy through submissions stays within ThrottleOpenTasks
	// + (concurrent submitters - 1) — exact with one creator, at most one
	// slot over with two — and dependency cascades, which never block,
	// may overdraw it further.
	ThrottleOpenTasks int
	// Replay selects the record-and-replay taskgraph cache behind
	// TaskContext.Graph. replay.KindAuto (the zero value) enables it in
	// real mode: the first execution of a named graph region records the
	// submitted graph's dependency fingerprints and edges, and later
	// executions with an identical shape bypass the dependency engine
	// entirely, driving per-task atomic predecessor countdowns into the
	// ready pool. Replay is an optimization, never a semantics change —
	// shape changes invalidate the recording mid-region and fall back to
	// the live engine, and unfinished external producers of region inputs
	// force a live execution (see Runtime.ReplayStats). replay.KindOff
	// disables the cache (regions keep their barrier); virtual mode always
	// resolves to off.
	Replay replay.Kind
	// Virtual selects the discrete-event virtual-time mode. It has no
	// ready pool: it starts ready tasks off its own deterministic FIFO list.
	Virtual bool
	// VirtualSubmitCost charges the creating task this many virtual cost
	// units per Submit: the child's dependencies are computed immediately,
	// but it cannot start before the creator "reaches" it, and the creator
	// stays busy for the accumulated creation time. This models the task
	// instantiation overhead whose serialization in a single generator is
	// the bottleneck Figure 4 exposes (and parallel instantiation through
	// nesting removes). 0 = instantaneous creation.
	VirtualSubmitCost int64
	// EnableTrace records per-worker execution spans.
	EnableTrace bool
	// Debug enables end-of-run invariant checks: the dependency engine must
	// have fully released every fragment and no task may remain live.
	// Violations surface as an error from RunChecked (a panic from Run).
	Debug bool
	// Watchdog enables the stall watchdog (real mode only): per-worker
	// heartbeat epochs plus a sampling monitor goroutine that detects the
	// lost-wakeup signature — queued work or parked waiters coexisting with
	// free tokens/credits while dispatch makes no progress — and captures a
	// structured StallReport (Runtime.StallReports). The monitor samples
	// every 2ms and reports a signature that persists, with frozen
	// heartbeats across every sample, for 250ms (~100x any legitimate
	// admission window). The per-dispatch cost is two uncontended atomic
	// stores on a worker-private cache line; off, it is one nil check. See
	// watchdog.go for the detection and false-positive policy.
	Watchdog bool
	// Verify enables the lint checks of verify.go: Touch assertions are
	// checked against the task's strong depend entries, and child depend
	// entries against the parent's. Findings accumulate in Violations.
	Verify bool
	// Cache, when non-nil, simulates one private cache per worker and
	// streams every executed task's strong dependency regions through it.
	Cache *cachesim.Config
	// SharedCache makes Cache model one cache shared by all workers (the
	// ThunderX L2 is physically shared) instead of per-worker private
	// caches. The geometry in Cache should then be the full cache (e.g.
	// cachesim.DefaultSharedL2), not a per-core share.
	SharedCache bool
	// Observer receives dependency-engine events (graph capture).
	Observer deps.Observer
}

type dataInfo struct {
	name     string
	elems    int64
	elemSize int64
}

// Runtime executes a task program under one of the two modes. A Runtime is
// single-run: create one, call Run once, then read the metrics.
type Runtime struct {
	cfg    Config
	eng    deps.Engine
	sch    *sched.Stealing[*Task]
	tracer *trace.Tracer
	caches *cachesim.Group

	datas   []dataInfo
	datasMu sync.Mutex

	// parkOnly skips Taskwait's help step, so every wait with incomplete
	// children blocks. Only the tests set it: the park-only runtime is the
	// oracle the helping waits are checked against.
	parkOnly bool

	// ctrs holds the per-task counters, one stripe per worker plus one for
	// callers holding no token (see taskCounters).
	ctrs  []taskCounters
	flops atomic.Int64

	// Pooled task memory (real mode only). tasksG is the
	// shared free-list shard for Task objects; ws holds one per-worker
	// scratch set — a task lane plus reusable spec/ready/batch slices —
	// entered only while holding that worker's token, so the steady-state
	// submit→complete cycle allocates nothing.
	tasksG *mempool.Global[Task]
	ws     []workerScratch

	thr *throttle.Window // admission window (nil if unthrottled or virtual)

	parks atomic.Int64 // blocking taskwaits (Runtime.TaskwaitStats)

	// Worksharing. wsPool is the chunk-descriptor free list (real mode
	// only); wsc counts regions/chunks/helper activity (Runtime.WsStats).
	wsPool *mempool.Pool[wsRun]
	wsc    wsCounters

	// Record-and-replay taskgraph cache (Config.Replay; real mode only).
	// gregs maps region names to their cache slots; replayPool is the
	// countdown-node free list; recCount tracks how many regions are
	// recording (the engine edge hook is installed while non-zero).
	replayOn   bool
	replayPool *replay.Pool
	gregMu     sync.Mutex
	gregs      map[string]*graphRegion
	recMu      sync.Mutex
	recCount   int
	repStats   struct {
		records, replays, invalidations, fallbacks atomic.Int64
	}

	// Stall watchdog (Config.Watchdog; real mode only). hb holds the
	// per-worker heartbeat slots (nil when disabled — the beat fast path
	// checks exactly that); wd is the sampling monitor, alive between
	// RunChecked's acquire and its final drain.
	hb []hbSlot
	wd *watchdog
	// wdInterval/wdBound replace the watchdog's default sampling period
	// and bound when set, and onStall receives each report as it fires (on
	// the watchdog goroutine). Only the tests set them (newTunedWatchdog).
	wdInterval, wdBound time.Duration
	onStall             func(*StallReport)

	rootDone  chan struct{}
	wallStart time.Time
	wallDur   time.Duration

	v *vstate // virtual mode state (nil in real mode)

	ran    atomic.Bool
	failed atomic.Bool // a task body panicked; drain without running bodies
	errMu  sync.Mutex
	err    error // first task failure

	vioMu      sync.Mutex
	violations []Violation
	vioCount   int64
}

// workerScratch is one worker's recycling state, padded so two workers'
// scratch never share a cache line. All fields are entered only while
// holding the worker's token (at most one goroutine at a time).
type workerScratch struct {
	tasks  mempool.Lane[Task] // 48 bytes
	specs  []deps.Spec        // 24
	ready  []*deps.Node       // 24
	batch  []*Task            // 24
	gready []*Task            // 24 (replay successor dispatch)
	_      [48]byte           // 144 -> 192 (multiple of the 64-byte line)
}

// taskCounters is one worker's stripe of the counters every task moves.
// On one shared cache line, two workers would trade that line on every
// task; instead each adds to its own stripe (callers holding no token, and
// virtual mode's -1, share the last one) and readers sum the stripes, which
// is exact once the run is quiescent.
type taskCounters struct {
	open    atomic.Int64 // dependency-ready, not yet started (throttle window)
	live    atomic.Int64 // instantiated, not yet completed (diagnostics)
	tasks   atomic.Int64 // submitted (TaskCount)
	inlined atomic.Int64 // run by a waiting task's help step (TaskwaitStats)
	_       [32]byte     // 32 -> 64
}

// taskCounts is the sum of the counter stripes.
type taskCounts struct{ open, live, tasks, inlined int64 }

// ctr returns worker w's counter stripe.
func (r *Runtime) ctr(w int) *taskCounters {
	if w < 0 || w >= r.cfg.Workers {
		w = r.cfg.Workers
	}
	return &r.ctrs[w]
}

// taskCounts sums the counter stripes.
func (r *Runtime) taskCounts() taskCounts {
	var s taskCounts
	for i := range r.ctrs {
		c := &r.ctrs[i]
		s.open += c.open.Load()
		s.live += c.live.Load()
		s.tasks += c.tasks.Load()
		s.inlined += c.inlined.Load()
	}
	return s
}

// scratchFor returns worker w's scratch set, or nil when w is out of range
// or the runtime has no task pools (virtual mode).
func (r *Runtime) scratchFor(w int) *workerScratch {
	if r.ws == nil || w < 0 || w >= len(r.ws) {
		return nil
	}
	return &r.ws[w]
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	r := &Runtime{cfg: cfg, rootDone: make(chan struct{}), ctrs: make([]taskCounters, cfg.Workers+1)}
	// One dependency engine in both modes: sharded per data object (and per
	// index-range stripe in real mode, see NewData), with its nodes,
	// fragments and interval-map cells recycled through typed free lists.
	// The single-mutex engine and the allocate-always memory mode are the
	// tests' differential references (internal/deps, newWithEngine).
	r.eng = deps.NewEngineMem(deps.EngineSharded, cfg.Observer, mempool.KindPooled)
	if !cfg.Virtual {
		r.tasksG = mempool.NewGlobal(func() *Task { return &Task{} })
		r.ws = make([]workerScratch, cfg.Workers)
		for i := range r.ws {
			r.ws[i].tasks.Init(r.tasksG)
		}
		r.wsPool = newWsPool(cfg.Workers)
	}
	if cfg.ThrottleOpenTasks > 0 && !cfg.Virtual {
		r.thr = throttle.New(throttle.KindAuto, cfg.ThrottleOpenTasks, cfg.Workers)
	}
	rp := cfg.Replay
	if rp == replay.KindAuto {
		if cfg.Virtual {
			rp = replay.KindOff
		} else {
			rp = replay.KindOn
		}
	}
	if rp == replay.KindOn && !cfg.Virtual {
		r.replayOn = true
		r.replayPool = replay.NewPool()
	}
	if cfg.EnableTrace {
		r.tracer = trace.New(cfg.Workers)
	}
	if cfg.Cache != nil {
		if cfg.SharedCache {
			r.caches = cachesim.NewSharedGroup(*cfg.Cache)
		} else {
			r.caches = cachesim.NewGroup(cfg.Workers, *cfg.Cache)
		}
	}
	if cfg.Virtual {
		r.v = newVState(cfg.Workers)
		return r
	}
	// One ready pool: per-worker lock-free deques, so the admission path
	// (Submit/Finish/Yield) of different workers never serializes on a
	// common lock, plus the per-worker creator lane that starts all-weak
	// tasks in program order (§VI).
	r.sch = sched.NewStealing(cfg.Workers, r.runWorker)
	if cfg.Watchdog {
		r.hb = make([]hbSlot, cfg.Workers)
	}
	return r
}

// NewData registers a data object of elems elements of elemSize bytes and
// returns its id. Dependencies are expressed as element intervals of a data
// object; the byte geometry only matters to the cache simulator.
func (r *Runtime) NewData(name string, elems int64, elemSize int) DataID {
	r.datasMu.Lock()
	defer r.datasMu.Unlock()
	r.datas = append(r.datas, dataInfo{name: name, elems: elems, elemSize: int64(elemSize)})
	id := DataID(len(r.datas) - 1)
	// An engine that can split an object's lock by index range is told the
	// extent (the global engine has nothing to split). Not in virtual mode:
	// one goroutine drives the engine there, and a clause cut at stripe
	// boundaries readies its successors in a different order, which the
	// recorded golden makespans are sensitive to.
	if ed, ok := r.eng.(extentDeclarer); ok && !r.cfg.Virtual {
		ed.DeclareExtent(id, elems, r.cfg.Workers)
	}
	return id
}

// extentDeclarer is the optional engine method NewData passes an object's
// extent through.
type extentDeclarer interface {
	DeclareExtent(data deps.DataID, elems int64, workers int)
}

// Workers returns the configured worker count.
func (r *Runtime) Workers() int { return r.cfg.Workers }

// Tracer returns the tracer (nil unless EnableTrace).
func (r *Runtime) Tracer() *trace.Tracer { return r.tracer }

// CacheMissRatio returns the simulated cache miss ratio (0 if disabled).
func (r *Runtime) CacheMissRatio() float64 {
	if r.caches == nil {
		return 0
	}
	return r.caches.MissRatio()
}

// CacheCounts returns simulated hits and misses.
func (r *Runtime) CacheCounts() (hits, misses int64) {
	if r.caches == nil {
		return 0, 0
	}
	return r.caches.Counts()
}

// Flops returns the accumulated flop count declared by executed tasks.
func (r *Runtime) Flops() int64 { return r.flops.Load() }

// TaskCount returns the number of tasks submitted (excluding the root).
func (r *Runtime) TaskCount() int64 { return r.taskCounts().tasks }

// WallTime returns the real-mode wall-clock duration of Run.
func (r *Runtime) WallTime() time.Duration { return r.wallDur }

// VirtualTime returns the virtual-mode makespan in cost units.
func (r *Runtime) VirtualTime() int64 {
	if r.v == nil {
		return 0
	}
	return r.v.now
}

// EffectiveParallelism returns total busy time over the run's span: real
// mode uses the trace (requires EnableTrace); virtual mode uses the
// simulator's exact accounting. This is the metric of Figure 6.
func (r *Runtime) EffectiveParallelism() float64 {
	if r.v != nil {
		if r.v.now == 0 {
			return 0
		}
		return float64(r.v.busySum) / float64(r.v.now)
	}
	if r.tracer == nil {
		return 0
	}
	return r.tracer.EffectiveParallelism(int64(r.wallDur))
}

// DepStats returns dependency-engine activity counters.
func (r *Runtime) DepStats() deps.Stats { return r.eng.Stats() }

// MemStats returns the dependency engine's memory-pool counters; pooled is
// true in both modes (the engine always recycles). The Outstanding leak
// accounting is exact once the run has drained.
func (r *Runtime) MemStats() (deps.MemStats, bool) { return r.eng.MemStats() }

// TaskPoolStats returns the Task free-list counters (zero in virtual
// mode, which allocates its tasks). Worker goroutines recycle their
// final task shortly after the run ends, so Outstanding may be briefly
// positive right after Run returns.
func (r *Runtime) TaskPoolStats() mempool.Stats {
	if r.tasksG == nil {
		return mempool.Stats{}
	}
	return r.tasksG.Stats()
}

// ReplayStats returns the record-and-replay cache's counters: regions
// recorded, executions replayed from a recording, recordings invalidated
// by a shape change, and live fallbacks (guard misses and ineligible
// shapes). Zero when the cache is disabled or no Graph region ran.
func (r *Runtime) ReplayStats() replay.Stats {
	return replay.Stats{
		Records:       r.repStats.records.Load(),
		Replays:       r.repStats.replays.Load(),
		Invalidations: r.repStats.invalidations.Load(),
		Fallbacks:     r.repStats.fallbacks.Load(),
	}
}

// ReplayPoolStats returns the countdown-node free-list counters of the
// record-and-replay cache (zero when the cache is disabled). Outstanding
// must be zero once the run has drained: every replayed region returns
// its nodes at its barrier.
func (r *Runtime) ReplayPoolStats() mempool.Stats {
	if r.replayPool == nil {
		return mempool.Stats{}
	}
	return r.replayPool.Stats()
}

// ThrottleStats returns the throttle window's diagnostic counters (zero
// when the throttle is disabled or in virtual mode).
func (r *Runtime) ThrottleStats() throttle.Stats {
	if r.thr == nil {
		return throttle.Stats{}
	}
	return r.thr.Stats()
}

// Run executes root as the implicit outermost task and returns when the
// whole task tree has completed. It may be called once per Runtime. If a
// task body panics, Run re-panics with the resulting *TaskError after the
// graph has drained; callers that prefer an error value use RunChecked.
func (r *Runtime) Run(root func(tc *TaskContext)) {
	if err := r.RunChecked(root); err != nil {
		panic(err)
	}
}

// RunChecked executes root as the implicit outermost task and returns when
// the whole task tree has completed. A panic in any task body is recovered
// and returned as a *TaskError: the runtime stops invoking further bodies
// and drains the remaining dependency graph so no goroutine or token leaks.
// With Config.Debug it additionally verifies end-of-run engine invariants.
func (r *Runtime) RunChecked(root func(tc *TaskContext)) error {
	if r.ran.Swap(true) {
		panic("core: Runtime.Run called twice; create a new Runtime per run")
	}
	if r.cfg.Virtual {
		r.runVirtual(root)
		return r.runErr()
	}
	w := r.sch.Acquire()
	r.wallStart = time.Now()
	if r.hb != nil {
		r.wd = r.newWatchdog()
		go r.wd.run()
		defer r.wd.shutdown()
	}
	rootTask := r.newTask(nil, TaskSpec{Label: "main", Body: root}, -1)
	tc := &TaskContext{rt: r, task: rootTask, worker: w}
	r.invokeBody(rootTask, tc)
	// Implicit wait at the end of the program (like the end of an OpenMP
	// parallel region): wait for the children, then complete the root.
	tc.Taskwait()
	ready, _ := r.finishBody(rootTask, tc.worker)
	r.dispatchAll(ready, tc.worker)
	r.sch.Yield(tc.worker)
	<-r.rootDone
	r.wallDur = time.Since(r.wallStart)
	return r.runErr()
}

func (r *Runtime) now() int64 {
	return int64(time.Since(r.wallStart))
}

// convertDeps translates the public Dep slice into engine specs, and
// reports whether the clause is non-empty and entirely weak — the mark of a
// creator task (see Stealing.SubmitCreator). In real mode the specs land in
// worker's reusable scratch slice: the engine copies each Spec value
// during Register (only the Ivs slices, which belong to the caller, are
// retained), so the scratch is free for the worker's next submit as soon as
// the Register call returns.
func (r *Runtime) convertDeps(ds []Dep, worker int) (specs []deps.Spec, allWeak bool) {
	if len(ds) == 0 {
		return nil, false
	}
	ws := r.scratchFor(worker)
	if ws != nil {
		specs = ws.specs[:0]
	} else {
		specs = make([]deps.Spec, 0, len(ds))
	}
	allWeak = true
	for _, d := range ds {
		specs = append(specs, deps.Spec{Data: d.Data, Type: d.Type, Weak: d.Weak, Ivs: d.Ivs})
		allWeak = allWeak && d.Weak
	}
	if ws != nil {
		ws.specs = specs
	}
	return specs, allWeak
}

// feedCache streams the regions the task actually accesses through the
// cache of the worker about to run it: Touches if declared, otherwise the
// strong dependency entries. Weak entries are always skipped: the paper's
// weak accesses declare that the task itself performs no access (§VI).
func (r *Runtime) feedCache(t *Task, worker int) {
	touches := t.spec.Touches
	if touches == nil {
		touches = t.spec.Deps
	}
	for _, d := range touches {
		if d.Weak {
			continue
		}
		elemSize := int64(8)
		r.datasMu.Lock()
		if int(d.Data) < len(r.datas) {
			elemSize = r.datas[d.Data].elemSize
		}
		r.datasMu.Unlock()
		base := uint64(d.Data) << 40 // distinct address spaces per data object
		for _, iv := range d.Ivs {
			if iv.Empty() {
				continue
			}
			r.caches.Access(worker, base+uint64(iv.Lo*elemSize), uint64(iv.Len()*elemSize))
		}
	}
}

// String summarizes the runtime's configuration (diagnostics).
func (r *Runtime) String() string {
	return fmt.Sprintf("Runtime{workers=%d virtual=%v}", r.cfg.Workers, r.cfg.Virtual)
}
