package main

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	nanos "repro"
	"repro/internal/mempool"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // length of the measured phase
	quick   bool    // tiny sizes, 2 reps: for iteration, not comparable
	workers int     // W = min(nproc, 4)
	outDir  string  // where trace files go
}

// result is what one pass over one workload produced.
type result struct {
	workload  string
	traced    bool
	metrics   map[string]float64
	attempted int
	failed    int
	reps      map[string]int // samples behind the medians, by phase
	firstErr  error
}

func (r *result) correct() bool { return r.failed == 0 }

func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rep is one run of a program on a fresh runtime.
type rep struct {
	wallMs, cpuMs float64
	allocBytes    float64
	gcCycles      float64
	tasks         int64
	rt            *nanos.Runtime
	err           error // run error, wrong output, or objects left out of a pool
}

func (wl *workload) config(o options, workers int) nanos.Config {
	cfg := nanos.Config{Workers: workers}
	if wl.throttled {
		cfg.ThrottleOpenTasks = 32 * o.workers
	}
	return cfg
}

// outstanding returns the objects still held out of the runtime's task and
// dependency pools. Workers recycle their last task just after Run
// returns, so a non-zero count is given a moment to settle.
func outstanding(rt *nanos.Runtime) int64 {
	var n int64
	for try := 0; try < 200; try++ {
		mem, _ := rt.MemStats()
		if n = rt.TaskPoolStats().Outstanding() + mem.Outstanding(); n == 0 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	return n
}

// runRep resets the program, runs it once and checks the outcome. Wall
// time covers RunChecked entry to return, i.e. every task drained; reset,
// runtime construction, the forced GC and verification are outside it.
func runRep(p program, cfg nanos.Config, x *tracer) rep {
	p.reset()
	rt := nanos.New(cfg)
	p.bind(rt)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := func(tc *nanos.TaskContext) { p.root(nil, tc) }
	if x != nil {
		x.begin()
		root = func(tc *nanos.TaskContext) {
			x.body(tc, 0, func(tc *nanos.TaskContext) { p.root(x, tc) })
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	err := rt.RunChecked(root)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)

	r := rep{
		wallMs:     float64(wall) / 1e6,
		cpuMs:      float64(cpu) / 1e6,
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:   float64(after.NumGC - before.NumGC),
		tasks:      rt.TaskCount(),
		rt:         rt,
		err:        err,
	}
	if r.err == nil {
		r.err = p.verify()
	}
	if r.err == nil {
		if n := outstanding(rt); n != 0 {
			r.err = fmt.Errorf("%d pooled objects outstanding after the run", n)
		}
	}
	return r
}

// setUp generates the inputs, computes the sequential reference and runs
// the warm-up reps: one with Config.Debug, so the runtime's own leak and
// credit checks fire before anything is timed, and one as timed reps run.
func setUp(wl *workload, o options, res *result) (p program, setupS, seqMs float64) {
	start := time.Now()
	p = wl.build(o.seed, o.quick)
	refStart := time.Now()
	p.reference()
	seqMs = float64(time.Since(refStart)) / 1e6
	debug := wl.config(o, o.workers)
	debug.Debug = true
	for _, cfg := range []nanos.Config{debug, wl.config(o, o.workers)} {
		res.attempted++
		if r := runRep(p, cfg, nil); r.err != nil {
			res.fail(fmt.Errorf("warm-up: %w", r.err))
		}
	}
	return p, time.Since(start).Seconds(), seqMs
}

// runReps repeats the program for the given time (at least minReps times;
// exactly two with -quick) and returns the verified reps.
func runReps(p program, cfg nanos.Config, x *tracer, o options, seconds float64, res *result, each func(rep)) []rep {
	const minReps = 3
	var reps []rep
	var tasks int64 = -1
	for start := time.Now(); ; {
		if o.quick && len(reps) == 2 {
			break
		}
		if !o.quick && len(reps) >= minReps && time.Since(start).Seconds() >= seconds {
			break
		}
		r := runRep(p, cfg, x)
		res.attempted++
		if r.err == nil && tasks >= 0 && r.tasks != tasks {
			r.err = fmt.Errorf("run.tasks changed between reps: %d, then %d", tasks, r.tasks)
		}
		if r.err != nil {
			res.fail(r.err)
		} else {
			tasks = r.tasks
		}
		if each != nil {
			each(r)
		}
		r.rt = nil // let the forced GC take the finished runtime
		reps = append(reps, r)
	}
	return reps
}

// quiet returns the fastest quarter of the reps by wall time, the ones the
// timings are taken from. A shared host disturbs the guest for seconds at a
// time: a slower core makes reps 30–40% longer in wall and CPU time alike, a
// busy neighbour in the guest makes them longer in wall and shorter in CPU
// time (the idle worker spins less). When such a spell covers half a run the
// median over all reps flips between two levels from one run to the next.
// Either kind only ever adds wall time, so the fastest quarter is undisturbed
// while a quarter of the run was, and the medians over it still move one for
// one with a change to the program.
func quiet(reps []rep) []rep {
	s := slices.Clone(reps)
	slices.SortStableFunc(s, func(a, b rep) int { return cmp.Compare(a.wallMs, b.wallMs) })
	return s[:max(1, len(s)/4)]
}

func wallOf(r rep) float64 { return r.wallMs }
func cpuOf(r rep) float64  { return r.cpuMs }

func column(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// measureEndToEnd is the untraced pass: set-up, repeated for a steady median
// set-up time (at least 7 times, and up to 31 while they add up to less than
// a second), then the timed phase with every wrapper off. Wall and CPU time
// are medians over the quiet reps, allocation over all of them.
func measureEndToEnd(wl *workload, o options) *result {
	res := &result{workload: wl.name, metrics: map[string]float64{}, reps: map[string]int{}}
	var p program
	var setups []float64
	for n := 0; n < 7 || (n < 31 && sum(setups) < 1); n++ {
		var s float64
		p, s, _ = setUp(wl, o, res)
		setups = append(setups, s)
		if o.quick {
			break
		}
	}
	reps := runReps(p, wl.config(o, o.workers), nil, o, o.seconds, res, nil)
	res.reps["setup"], res.reps["timed"] = len(setups), len(reps)
	res.metrics["setup_s"] = median(setups)
	res.metrics["wall_ms"] = median(column(quiet(reps), wallOf))
	res.metrics["cpu_ms"] = median(column(quiet(reps), cpuOf))
	res.metrics["alloc_bytes_per_task"] = median(column(reps, func(r rep) float64 { return ratio(r.allocBytes, float64(r.tasks)) }))
	return res
}

// measureLayers is the traced pass. The time budget is split between
// untraced reps (the base for run.trace_overhead and the run.* numbers),
// traced reps (spans and the runtime's own counters), reps at one worker,
// and the single-layer drives, which take a fixed ~1.5 s.
func measureLayers(wl *workload, o options) (*result, error) {
	res := &result{workload: wl.name, traced: true, metrics: map[string]float64{}, reps: map[string]int{}}
	m := res.metrics
	w := o.workers
	p, _, seqMs := setUp(wl, o, res)
	cfg := wl.config(o, w)

	plain := runReps(p, cfg, nil, o, 0.3*o.seconds, res, nil)
	walls := column(plain, wallOf)
	wallMs := median(column(quiet(plain), wallOf))

	x := newTracer(w)
	var last *repTrace // the trace file holds the last traced rep
	perRep := map[string][]float64{}
	traced := runReps(p, cfg, x, o, 0.3*o.seconds, res, func(r rep) {
		last = x.collect()
		if err := last.checkSelfTimes(); err != nil && r.err == nil {
			res.fail(err)
		}
		for k, v := range layerValues(r, last, w) {
			perRep[k] = append(perRep[k], v)
		}
	})
	for k, v := range perRep {
		m[k] = median(v)
	}
	tracedWallMs := median(column(quiet(traced), wallOf))

	single := runReps(p, wl.config(o, 1), nil, o, 0.15*o.seconds, res, nil)
	wallW1 := median(column(quiet(single), wallOf))

	// One more rep, untimed, with the wrappers also capturing the stream
	// of depend entries the drives replay.
	x.cap = &capture{}
	res.attempted++
	if r := runRep(p, cfg, x); r.err != nil {
		res.fail(fmt.Errorf("capture rep: %w", r.err))
	}
	captured := x.cap.tasks
	bodyOf := map[uint64]uint64{}
	for _, s := range x.collect().spans {
		if s.kind == kBody {
			bodyOf[s.id] = s.parent
		}
	}
	x.cap = nil

	res.reps["untraced"], res.reps["traced"], res.reps["w1"] = len(plain), len(traced), len(single)
	m["run.tasks"] = float64(plain[0].tasks)
	m["run.fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	m["run.wall_median_ms"] = median(walls)
	m["run.wall_tail_ms"] = tail(walls)
	m["run.seq_ms"] = seqMs
	m["run.speedup_vs_seq"] = ratio(seqMs, wallMs)
	m["run.wall_w1_ms"] = wallW1
	m["run.par_eff"] = ratio(wallW1, float64(w)*wallMs)
	m["run.gc_cycles"] = median(column(plain, func(r rep) float64 { return r.gcCycles }))
	m["run.trace_overhead"] = ratio(tracedWallMs, wallMs)

	size := driveSizeFor(o.quick)
	dd := driveDeps(buildTree(captured, bodyOf), size)
	m["deps.live_fragments_end"] = float64(dd.liveFragmentsEnd)
	m["deps.register_ns"] = dd.registerNs
	m["deps.release_ns"] = dd.releaseNs
	m["deps.drive_allocs_per_op"] = dd.allocsPerOp
	rd := driveRegions(captured, size)
	m["regions.op_ns"] = rd.opNs
	m["regions.entries_peak"] = float64(rd.entriesPeak)
	sd := driveSched(w, size)
	m["sched.chain_ns"] = sd.chainNs
	m["sched.fanout_ns"] = sd.fanoutNs
	m["sched.steals_per_op"] = sd.stealsPerOp
	m["throttle.cycle_ns"] = driveThrottle(w, 32*w, size)
	m["throttle.blocked_cycle_ns"] = driveThrottle(w, max(1, w-1), size)
	m["mempool.get_put_ns"] = driveMempool(w, size)
	m["replay.fp_ns"] = driveReplayFP(captured, size)

	path := filepath.Join(o.outDir, "trace-"+wl.name+".json")
	if err := last.writeChrome(path, wl.name, len(traced)-1); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// layerValues reduces one traced rep to the per-layer numbers that come
// from its spans and from the runtime's counters read after it.
func layerValues(r rep, tr *repTrace, workers int) map[string]float64 {
	rt := r.rt
	tasks := float64(r.tasks)
	ktasks := tasks / 1000
	m := map[string]float64{}

	m["run.nonbody_ns_per_task"] = ratio(float64(workers)*r.wallMs*1e6-tr.bodyBusyMs*1e6, tasks)

	m["core.submit_ns"] = median(tr.submitNs)
	m["core.submit_busy_ms"] = tr.submitBusyMs
	m["core.body_busy_ms"] = tr.bodyBusyMs
	m["core.ready_to_run_us"] = median(tr.readyToRunUs)
	m["core.taskwait_ns"] = median(tr.taskwaitNs)
	m["core.taskwait_blocked_ms"] = tr.taskwaitBlockedMs
	tw := rt.TaskwaitStats()
	m["core.taskwait_handoffs"] = float64(tw.Handoffs)
	m["core.taskwait_parks"] = float64(tw.Parks)
	m["core.taskwait_steal_resumes"] = float64(tw.StealResumes)
	m["core.graph_call_us"] = median(tr.graphUs)
	m["core.ws_region_us"] = median(tr.wsRegionUs)
	ws := rt.WsStats()
	m["core.ws_helper_share"] = ratio(float64(ws.HelperChunks), float64(ws.Chunks))
	m["core.ws_announcements"] = float64(ws.Announcements)

	ds := rt.DepStats()
	m["deps.nodes_per_task"] = ratio(float64(ds.Nodes), tasks)
	m["deps.fragments_per_task"] = ratio(float64(ds.Fragments), tasks)
	m["deps.links_per_task"] = ratio(float64(ds.Links), tasks)
	m["deps.inbounds_per_task"] = ratio(float64(ds.Inbounds), tasks)
	m["deps.grants_per_task"] = ratio(float64(ds.Grants), tasks)
	m["deps.handovers_per_task"] = ratio(float64(ds.Handovers), tasks)
	m["deps.releases_per_task"] = ratio(float64(ds.Releases), tasks)

	m["sched.migrated_share"] = tr.migratedShare
	m["sched.worker_imbalance"] = tr.workerImbalance

	th := rt.ThrottleStats()
	m["throttle.parks"] = ratio(float64(th.Parks), ktasks)
	m["throttle.borrows"] = ratio(float64(th.Borrows), ktasks)
	m["throttle.steals"] = ratio(float64(th.Steals), ktasks)
	m["throttle.handoffs"] = ratio(float64(th.Handoffs), ktasks)
	m["throttle.reparks"] = ratio(float64(th.Reparks), ktasks)

	tp := rt.TaskPoolStats()
	mem, _ := rt.MemStats()
	var news, gets, refills int64
	for _, s := range []mempool.Stats{mem.Nodes, mem.Fragments, mem.Accesses, mem.AccessMaps, mem.DomainMaps, mem.FragLists} {
		news, gets, refills = news+s.News, gets+s.Gets, refills+s.Refills
	}
	m["mempool.task_reuse_ratio"] = 1 - ratio(float64(tp.News), float64(tp.Gets))
	m["mempool.deps_reuse_ratio"] = 1 - ratio(float64(news), float64(gets))
	m["mempool.refills_per_ktask"] = ratio(float64(tp.Refills+refills), ktasks)
	m["mempool.outstanding_end"] = float64(outstanding(rt))

	rp := rt.ReplayStats()
	m["replay.records"] = float64(rp.Records)
	m["replay.replays"] = float64(rp.Replays)
	m["replay.invalidations"] = float64(rp.Invalidations)
	m["replay.fallbacks"] = float64(rp.Fallbacks)
	m["replay.hit_ratio"] = ratio(float64(rp.Replays), float64(rp.Records+rp.Replays+rp.Invalidations+rp.Fallbacks))
	sweeps := tr.graphUs
	if rp.Records > 0 && len(sweeps) > 0 {
		m["replay.record_sweep_us"] = sweeps[0]
		sweeps = sweeps[1:]
	} else {
		m["replay.record_sweep_us"] = 0
	}
	m["replay.replay_sweep_us"] = median(sweeps)
	return m
}
