package harness

// This file holds the contention benchmark kernels behind cmd/depbench's
// tables (one measurement = one kernel call). Each kernel drives one
// subsystem's worst-case workload and returns raw counters; the callers
// own formatting, warm-up policy, and GOMAXPROCS pinning.
//
// The counters every kernel samples:
//
//   - wall time over the driven ops;
//   - process-wide mutex wait (/sync/mutex/wait/total), which exposes
//     single-lock serialization even on hosts too small for wall clock to;
//   - package-attributed mutex-contention cycles (runtime.MutexProfile
//     filtered to the package under test), isolating exactly the locks the
//     sharded implementations remove;
//   - allocator/collector traffic (Mallocs + PauseTotalNs deltas).
//
// Callers that want the package-attributed cycles must enable the mutex
// profiler first (runtime.SetMutexProfileFraction(1)); the kernels only
// read the profile.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/regions"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/throttle"
)

// memCounters samples the allocator/collector counters the alloc columns
// are computed from.
func memCounters() (mallocs uint64, gcPause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, time.Duration(ms.PauseTotalNs)
}

func mutexWait() time.Duration {
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	return time.Duration(sample[0].Value.Float64() * float64(time.Second))
}

// pkgLockCycles sums mutex-contention cycles attributed to pkg (e.g.
// "repro/internal/deps.") by the runtime mutex profiler — unlike the
// process-wide wait counter it excludes allocator and scheduler locks, so
// it isolates exactly the serialization the sharded implementations
// remove.
func pkgLockCycles(pkg string) int64 {
	n, _ := runtime.MutexProfile(nil)
	records := make([]runtime.BlockProfileRecord, n+50)
	n, ok := runtime.MutexProfile(records)
	for !ok {
		// The profile grew past our slack between the two calls; resize
		// and retry rather than returning a bogus (delta-breaking) zero.
		records = make([]runtime.BlockProfileRecord, len(records)*2)
		n, ok = runtime.MutexProfile(records)
	}
	var cycles int64
	for _, r := range records[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			// CallersFrames (unlike FuncForPC) expands inlined calls, so a
			// lock helper inlined into its caller still attributes here.
			if strings.Contains(f.Function, pkg) {
				cycles += r.Cycles
				break
			}
			if !more {
				break
			}
		}
	}
	return cycles
}

// cpuTime returns the process's cumulative user+system CPU time. The
// taskwait and worksharing kernels derive worker idleness from its delta:
// a goroutine blocked in a wait (parked or pool-queued) burns no CPU,
// while spinning bodies burn it continuously, so 1 - cpu/(w*wall) is the
// fraction of worker capacity the strategy left unused. The execution
// trace cannot supply this — its spans deliberately include time blocked
// inside Taskwait (see executeTask).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitSpin burns a few microseconds of CPU proportional to n; the sink
// defeats dead-code elimination.
var waitSink atomic.Int64

func waitSpin(n int) {
	var s int64
	for i := 0; i < n; i++ {
		s += int64(i ^ (i >> 3))
	}
	waitSink.Add(s)
}

// BenchCounters are the allocator/contention counters every kernel
// samples around its measured region.
type BenchCounters struct {
	Ops        int           // ops actually driven (input rounded to a multiple of w)
	Wall       time.Duration // wall time of the measured region
	MutexWait  time.Duration // process-wide mutex wait delta
	LockCycles int64         // package-attributed mutex-contention cycles delta
	Allocs     uint64        // heap allocation count delta
	GCPause    time.Duration // GC stop-the-world pause delta
}

// DepsBench drives ops register→complete chain steps split over w
// goroutines (rounded down to a multiple of w), each goroutine on its own
// data object — the dependency-engine contention kernel.
func DepsBench(kind deps.EngineKind, mem mempool.Kind, w, ops int) BenchCounters {
	e := deps.NewEngineMem(kind, nil, mem)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	parents := make([]*deps.Node, w)
	for i := range parents {
		parents[i] = e.NewNode(root, fmt.Sprintf("gen%d", i), nil)
		e.Register(parents[i], nil)
	}
	perW := ops / w
	var wg sync.WaitGroup
	wait0 := mutexWait()
	cyc0 := pkgLockCycles("repro/internal/deps.")
	m0, p0 := memCounters()
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := deps.DataID(i)
			spec := []deps.Spec{{Data: data, Type: deps.InOut, Ivs: []regions.Interval{regions.Iv(0, 64)}}}
			buf := make([]*deps.Node, 0, 4)
			var prev *deps.Node
			for n := 0; n < perW; n++ {
				nd := e.NewNode(parents[i], "t", nil)
				e.Register(nd, spec)
				if prev != nil {
					e.CompleteInto(prev, buf[:0])
				}
				prev = nd
			}
			if prev != nil {
				e.CompleteInto(prev, buf[:0])
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	m1, p1 := memCounters()
	return BenchCounters{
		Ops: perW * w, Wall: wall,
		MutexWait:  mutexWait() - wait0,
		LockCycles: pkgLockCycles("repro/internal/deps.") - cyc0,
		Allocs:     m1 - m0, GCPause: p1 - p0,
	}
}

// SchedPoolMaker builds one ready pool for SchedBench.
type SchedPoolMaker func(workers int, spawn func(item, worker int)) sched.Queue[int]

// SchedPools lists the ready pools the sched table sweeps, the central
// single-lock reference first.
var SchedPools = []struct {
	Name string
	Make SchedPoolMaker
}{
	{"central", func(w int, s func(int, int)) sched.Queue[int] { return sched.New(w, sched.FIFO, s) }},
	{"stealing", func(w int, s func(int, int)) sched.Queue[int] { return sched.NewStealing(w, s) }},
}

// statser is implemented by the ready pools that report steal counters.
type statser interface {
	Stats() sched.PoolStats
}

// SchedBench drives ops submit→finish chain steps split over w runner
// chains, each chain submitting its successor from its own worker — the
// scheduler-admission analogue of the disjoint dependency chains: all
// chains are independent, so the only serialization is the ready pool's
// own locking. The second return value is the pool's steal count (0 for
// pools without steal counters).
func SchedBench(mk SchedPoolMaker, w, ops int) (BenchCounters, int64) {
	perW := ops / w
	remaining := make([]atomic.Int64, w)
	for i := range remaining {
		remaining[i].Store(int64(perW))
	}
	var done sync.WaitGroup
	done.Add(w)
	var q sched.Queue[int]
	q = mk(w, func(chain, worker int) {
		for {
			if remaining[chain].Add(-1) > 0 {
				q.Submit(chain, worker)
			} else {
				done.Done()
			}
			next, ok := q.Finish(worker)
			if !ok {
				return
			}
			chain = next
		}
	})
	wait0 := mutexWait()
	cyc0 := pkgLockCycles("repro/internal/sched.")
	m0, p0 := memCounters()
	start := time.Now()
	for i := 0; i < w; i++ {
		q.Submit(i, -1)
	}
	done.Wait()
	wall := time.Since(start)
	m1, p1 := memCounters()
	var steals int64
	if st, ok := q.(statser); ok {
		steals = st.Stats().Steals
	}
	return BenchCounters{
		Ops: perW * w, Wall: wall,
		MutexWait:  mutexWait() - wait0,
		LockCycles: pkgLockCycles("repro/internal/sched.") - cyc0,
		Allocs:     m1 - m0, GCPause: p1 - p0,
	}, steals
}

// ThrottleBench drives ops reserve→enter→start cycles split over w
// submitter goroutines sharing one admission window of the given bound —
// the throttle analogue of the disjoint chains: the submitters share
// nothing but the window itself, so the only serialization is the
// window's own synchronization. The second return value is the window's
// parked-submitter count.
func ThrottleBench(kind throttle.Kind, w, ops, window int) (BenchCounters, int64) {
	win := throttle.New(kind, window, w)
	perW := ops / w
	var wg sync.WaitGroup
	wait0 := mutexWait()
	cyc0 := pkgLockCycles("repro/internal/throttle.")
	m0, p0 := memCounters()
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_, prepaid := win.Reserve(g, nil)
				if prepaid {
					win.EnteredReserved()
				} else {
					win.Entered(1)
				}
				win.Started(g)
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	m1, p1 := memCounters()
	return BenchCounters{
		Ops: perW * w, Wall: wall,
		MutexWait:  mutexWait() - wait0,
		LockCycles: pkgLockCycles("repro/internal/throttle.") - cyc0,
		Allocs:     m1 - m0, GCPause: p1 - p0,
	}, win.Stats().Parks
}

// ReplayVariant names one formulation of the Gauss-Seidel wavefront sweep
// for the replay-overhead kernel.
type ReplayVariant uint8

const (
	ReplayNestWeak  ReplayVariant = iota // weakwait iteration tasks (§VIII-B nest-weak)
	ReplayLiveGraph                      // graph regions through the live engine
	ReplayFrozen                         // graph regions replayed from the recording
)

// String returns the depbench row name of the variant.
func (v ReplayVariant) String() string {
	switch v {
	case ReplayNestWeak:
		return "live-nestweak"
	case ReplayLiveGraph:
		return "live-graph"
	default:
		return "replay"
	}
}

// ReplayOverheadBench drives iters sweeps of a blocks×blocks tile
// wavefront with empty bodies — pure runtime overhead — and returns the
// counters plus the tasks submitted per iteration. Ops in the returned
// counters is tiles×iters.
func ReplayOverheadBench(v ReplayVariant, w, blocks, iters int) (BenchCounters, int) {
	kind := replay.KindOff
	if v == ReplayFrozen {
		kind = replay.KindOn
	}
	rt := core.New(core.Config{Workers: w, Replay: kind})
	b := int64(blocks)
	side := b + 2
	total := side * side
	ad := rt.NewData("A", total, 8)
	blk := func(i, j int64) regions.Interval { return regions.BlockInterval(side, 1, i, j) }
	tile := func(i, j int64) core.TaskSpec {
		return core.TaskSpec{
			Label: "tile",
			Deps: []core.Dep{
				{Data: ad, Type: deps.In, Ivs: []regions.Interval{blk(i-1, j)}},
				{Data: ad, Type: deps.In, Ivs: []regions.Interval{blk(i, j-1)}},
				{Data: ad, Type: deps.InOut, Ivs: []regions.Interval{blk(i, j)}},
				{Data: ad, Type: deps.In, Ivs: []regions.Interval{blk(i, j+1)}},
				{Data: ad, Type: deps.In, Ivs: []regions.Interval{blk(i+1, j)}},
			},
			Body: func(*core.TaskContext) {},
		}
	}
	// The tile specs are built once and resubmitted every sweep, so the
	// allocs counter measures the runtime's per-task allocations, not the
	// driver's spec construction.
	specs := make([]core.TaskSpec, 0, blocks*blocks)
	for i := int64(1); i <= b; i++ {
		for j := int64(1); j <= b; j++ {
			specs = append(specs, tile(i, j))
		}
	}
	sweep := func(tc *core.TaskContext) {
		for k := range specs {
			tc.Submit(specs[k])
		}
	}
	iterSpec := core.TaskSpec{
		Label:    "iteration",
		WeakWait: true,
		Deps:     []core.Dep{{Data: ad, Type: deps.InOut, Weak: true, Ivs: []regions.Interval{regions.Iv(0, total)}}},
		Body:     sweep,
	}
	wait0 := mutexWait()
	m0, p0 := memCounters()
	start := time.Now()
	rt.Run(func(tc *core.TaskContext) {
		for it := 0; it < iters; it++ {
			if v == ReplayNestWeak {
				tc.Submit(iterSpec)
			} else {
				tc.Graph("gs-sweep", sweep)
			}
		}
	})
	wall := time.Since(start)
	m1, p1 := memCounters()
	return BenchCounters{
		Ops: blocks * blocks * iters, Wall: wall,
		MutexWait: mutexWait() - wait0,
		Allocs:    m1 - m0, GCPause: p1 - p0,
	}, blocks * blocks
}

// WSChunkResult extends the counters with the worksharing-specific
// redistribution and idleness measurements.
type WSChunkResult struct {
	BenchCounters
	Chunks       int64   // chunks driven over the whole run
	HelperChunks int64   // chunks executed by announced helpers
	Idle         float64 // fraction of worker capacity left unused
}

// WSChunkBench drives iters worksharing regions over [0, n) at the given
// grain, chained through a union inout entry so regions serialize and the
// intra-region chunk distribution is the only parallelism — the worst
// case for amortizing the announcement. Chunk bodies spin proportionally
// to chunk length, so total body work is grain-independent and a grain
// sweep isolates the per-chunk overhead.
func WSChunkBench(kind core.WorksharingKind, w, iters int, grain, n int64) WSChunkResult {
	rt := core.New(core.Config{Workers: w, WorksharingImpl: kind})
	ad := rt.NewData("A", n, 8)
	cpu0 := cpuTime()
	m0, _ := memCounters()
	start := time.Now()
	rt.Run(func(tc *core.TaskContext) {
		for it := 0; it < iters; it++ {
			tc.Worksharing(core.WorksharingSpec{
				Label: "ws",
				Lo:    0, Hi: n, Grain: grain,
				Deps: func(lo, hi int64) []core.Dep {
					return []core.Dep{{Data: ad, Type: deps.InOut, Ivs: []regions.Interval{regions.Iv(lo, hi)}}}
				},
				Body: func(_ *core.TaskContext, lo, hi int64) { waitSpin(int(hi - lo)) },
			})
		}
	})
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	m1, _ := memCounters()
	out := WSChunkResult{
		BenchCounters: BenchCounters{Ops: iters, Wall: wall, Allocs: m1 - m0},
		Chunks:        (n + grain - 1) / grain * int64(iters),
		HelperChunks:  rt.WsStats().HelperChunks,
	}
	if wall > 0 {
		out.Idle = 1 - float64(cpu)/(float64(w)*float64(wall))
		if out.Idle < 0 {
			out.Idle = 0
		}
	}
	return out
}

// WaitResult extends the counters with the taskwait strategy counters.
type WaitResult struct {
	BenchCounters
	Waits int64 // blocking waits driven (parks + handoffs)
	Stats core.TaskwaitStats
	Idle  float64 // fraction of worker capacity left unused
}

// WaitBench drives reps waves of a nested-taskwait workload: each wave
// submits 2w parent tasks, and each parent submits fan spinning leaf
// children and waits for them twice (two batches per parent). The leaf
// spins guarantee the parents' taskwaits find incomplete children: a wait
// runs the ones still on its worker's deque itself (Stats.Inlined) and
// blocks on the rest — the blocking path under measurement.
func WaitBench(kind core.TaskwaitKind, w, reps, fan int) WaitResult {
	rt := core.New(core.Config{Workers: w, TaskwaitImpl: kind})
	cpu0 := cpuTime()
	start := time.Now()
	rt.Run(func(tc *core.TaskContext) {
		for rep := 0; rep < reps; rep++ {
			for p := 0; p < 2*w; p++ {
				tc.Submit(core.TaskSpec{Label: "parent", Body: func(tc *core.TaskContext) {
					for batch := 0; batch < 2; batch++ {
						for c := 0; c < fan; c++ {
							tc.Submit(core.TaskSpec{Label: "leaf", Body: func(*core.TaskContext) {
								waitSpin(2000)
							}})
						}
						tc.Taskwait()
					}
				}})
			}
			tc.Taskwait()
		}
	})
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	st := rt.TaskwaitStats()
	out := WaitResult{
		BenchCounters: BenchCounters{Ops: reps, Wall: wall},
		Waits:         st.Parks + st.Handoffs,
		Stats:         st,
	}
	if wall > 0 {
		out.Idle = 1 - float64(cpu)/(float64(w)*float64(wall))
		if out.Idle < 0 {
			out.Idle = 0
		}
	}
	return out
}
