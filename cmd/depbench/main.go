// Command depbench quantifies runtime lock contention on the hot paths
// the sharded subsystems remove locks from, printing one table per path:
//
//   - deps: the dependency engine. The same disjoint-data chain workload
//     (w generator goroutines, each registering and completing a serial
//     chain of tasks over its own data object) runs through the
//     global-lock engine and the per-data-object sharded engine.
//   - sched: the scheduler admission path. The analogous disjoint chain
//     workload (w runner chains, each submitting its successor from its
//     own worker and chaining through Finish) runs through the central
//     single-lock ready pool and the work-stealing (lock-free deque) pool.
//   - throttle: the open-task admission window (bounded lookahead). The
//     analogous cycle workload (w submitters sharing one contended window,
//     each cycling reserve → enter → start) runs through the mutex+cond
//     reference window and the sharded token-bucket window.
//   - replay: the record-and-replay taskgraph cache. The Gauss-Seidel
//     wavefront sweep (one graph region per iteration, empty tile bodies
//     so only runtime overhead is measured) runs three ways: the paper's
//     nest-weak formulation through the live engine, the graph-region
//     formulation through the live engine, and the graph-region
//     formulation replayed from the frozen recording — the last bypasses
//     the dependency engine entirely, so its per-iteration overhead is
//     the cost of atomic countdowns plus ready-pool admission.
//   - ws: the worksharing chunk distribution. A chain of fine-grained
//     loop regions (union inout over one data object, chunk bodies that
//     spin proportionally to chunk length) runs twice per grain: expanded
//     to one task per chunk (the Taskloop shape) and as one worksharing
//     task whose chunks self-schedule against a shared cursor.
//   - wait: the Taskwait blocking strategies. A nested-taskwait workload
//     (parents submitting spinning leaf children and blocking on them,
//     repeated in waves) runs through the parking reference and the
//     continuation handoff; the continuation rows must show zero parks at
//     every width — a blocked wait's resume rides the ready pools instead
//     of parking the worker.
//   - locality: the topology-aware steal victim selection. An imbalanced
//     drain workload (each core group's work piled on one shard, every
//     other worker progressing only by stealing) runs through the
//     stealing pool over a synthetic two-domain topology twice: flat
//     victim order (the reference) and the nearest-first tree walk. The
//     columns are the steal-distance histogram (sibling / in-domain /
//     cross-domain) and the cross-group steal rate, which the tree rows
//     must push toward the sibling level.
//   - chaos: the fault-injection robustness table. The mixed-construct
//     workload (graph regions, nested taskwait, worksharing, taskgroups)
//     runs once per subsystem group of failpoint sites (internal/chaos)
//     under a fixed seeded schedule, with the stall watchdog armed. The
//     columns are wall time, failpoint hits, and the stall-report count;
//     the expectation printed under the table is 0 stalls on every row —
//     failpoints widen race windows but never drop operations, so a
//     correct runtime under chaos is slower, never stuck. This table is
//     not in -mode all: it measures robustness, not contention.
//
// The benchmark kernels live in internal/harness (DepsBench, SchedBench,
// ThrottleBench, ReplayOverheadBench, WSChunkBench, WaitBench,
// LocalityBench); see that package for the per-kernel workload and
// counter documentation. This command owns the sweep loops, warm-up
// passes, and formatting.
//
// Usage:
//
//	depbench [-mode all|deps|sched|throttle|replay|ws|wait|locality|chaos] [-workers 1,2,4,8]
//	         [-ops N] [-sched-ops N] [-throttle-ops N] [-window N]
//	         [-replay-iters N] [-replay-blocks N] [-ws-iters N] [-ws-grain G,G,...]
//	         [-wait-reps N] [-wait-fan N] [-locality-ops N] [-locality-spin N]
//	         [-chaos-seed S] [-chaos-rate N] [-chaos-iters N] [-json]
//
// -ops, -sched-ops, and -throttle-ops size the three workloads
// independently (admission cycles are far cheaper than engine ops, so the
// later tables need longer runs for contention to accumulate measurably).
// -window sets the throttle bound; 0 (the default) uses the row's worker
// count, the tightest window that still lets every submitter run.
//
// -json replaces the text tables with one machine-readable JSON array on
// stdout: one object per table row, {"table","row","workers","params",
// "metrics"}, with every numeric column under its snake_case key in
// "metrics", for plotting pipelines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/harness"
	"repro/internal/mempool"
	"repro/internal/sched"
	"repro/internal/throttle"
)

// row is one table row of the -json output.
type row struct {
	Table   string             `json:"table"`
	Row     string             `json:"row"`
	Workers int                `json:"workers"`
	Params  map[string]int64   `json:"params,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// emitter collects rows for -json or prints text lines, never both.
type emitter struct {
	json bool
	rows []row
}

// printf prints only in text mode.
func (e *emitter) printf(format string, args ...any) {
	if !e.json {
		fmt.Printf(format, args...)
	}
}

// add records one row in JSON mode.
func (e *emitter) add(table, name string, workers int, params map[string]int64, metrics map[string]float64) {
	if e.json {
		e.rows = append(e.rows, row{Table: table, Row: name, Workers: workers, Params: params, Metrics: metrics})
	}
}

// flush writes the collected rows as a JSON array.
func (e *emitter) flush() error {
	if !e.json {
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(e.rows)
}

// withGOMAXPROCS raises GOMAXPROCS to at least w around f.
func withGOMAXPROCS(w int, f func()) {
	prev := runtime.GOMAXPROCS(0)
	if w > prev {
		runtime.GOMAXPROCS(w)
	}
	f()
	runtime.GOMAXPROCS(prev)
}

func main() {
	modeFlag := flag.String("mode", "all", "which table to print: all, deps, sched, throttle, replay, ws, wait, or locality")
	opsFlag := flag.Int("ops", 400_000, "chain steps per dependency-engine configuration")
	// Scheduler admission ops are ~10x cheaper than engine ops, so the
	// sched table needs a longer run for lock contention to accumulate
	// measurably on small hosts; throttle cycles are cheaper still.
	schedOpsFlag := flag.Int("sched-ops", 2_000_000, "chain steps per scheduler-pool configuration")
	throttleOpsFlag := flag.Int("throttle-ops", 4_000_000, "admission cycles per throttle-window configuration")
	windowFlag := flag.Int("window", 0, "throttle window bound (0 = the row's worker count)")
	replayItersFlag := flag.Int("replay-iters", 400, "sweeps per replay-table configuration")
	replayBlocksFlag := flag.Int("replay-blocks", 8, "tile grid side of the replay-table wavefront sweep")
	wsItersFlag := flag.Int("ws-iters", 100, "loop regions per worksharing-table configuration")
	wsGrainFlag := flag.String("ws-grain", "16,64,256", "comma-separated grain sweep for the worksharing table")
	wsRangeFlag := flag.Int64("ws-n", 1<<16, "iteration-space size of each worksharing region")
	waitRepsFlag := flag.Int("wait-reps", 200, "waves per taskwait-table configuration")
	waitFanFlag := flag.Int("wait-fan", 8, "leaf children per parent in the taskwait-table workload")
	localityOpsFlag := flag.Int("locality-ops", 200_000, "leaf items per locality-table configuration")
	localitySpinFlag := flag.Int("locality-spin", 400, "leaf busy-spin of the locality-table workload")
	chaosSeedFlag := flag.Uint64("chaos-seed", 1, "failpoint PRNG seed of the chaos table")
	chaosRateFlag := flag.Uint("chaos-rate", 2, "per-site fire rate denominator of the chaos table (1 = every call)")
	chaosItersFlag := flag.Int("chaos-iters", 64, "workload iterations per chaos-table row")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	jsonFlag := flag.Bool("json", false, "emit one JSON array of table rows instead of text tables")
	flag.Parse()

	var workers []int
	for _, s := range strings.Split(*workersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "depbench: bad worker count %q\n", s)
			os.Exit(2)
		}
		workers = append(workers, n)
	}
	switch *modeFlag {
	case "all", "deps", "sched", "throttle", "replay", "ws", "wait", "locality", "chaos":
	default:
		fmt.Fprintf(os.Stderr, "depbench: bad mode %q (want all, deps, sched, throttle, replay, ws, wait, locality, or chaos)\n", *modeFlag)
		os.Exit(2)
	}
	var wsGrains []int64
	for _, s := range strings.Split(*wsGrainFlag, ",") {
		g, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || g < 1 {
			fmt.Fprintf(os.Stderr, "depbench: bad worksharing grain %q\n", s)
			os.Exit(2)
		}
		wsGrains = append(wsGrains, g)
	}
	em := &emitter{json: *jsonFlag}

	// Keep the collector out of the measurement as far as possible: the
	// workloads allocate (nodes, fragments, deque rings), and GC's own
	// locks would pollute the mutex-wait counter.
	debug.SetGCPercent(1000)
	runtime.SetMutexProfileFraction(1)

	if *modeFlag == "all" || *modeFlag == "deps" {
		em.printf("dependency engine (disjoint-data chains)\n")
		em.printf("%-14s %8s %12s %12s %10s %14s %18s %11s %10s\n",
			"engine", "workers", "ops", "wall", "Mops/s", "mutex-wait", "engine-lock-Gcyc", "allocs/kop", "gc-pause")
		rows := []struct {
			name string
			kind deps.EngineKind
			mem  mempool.Kind
		}{
			{"global", deps.EngineGlobal, mempool.KindReference},
			{"sharded", deps.EngineSharded, mempool.KindReference},
			{"sharded-pool", deps.EngineSharded, mempool.KindPooled},
		}
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				for _, r := range rows {
					// Warm-up pass absorbs one-time costs (shard tables, size
					// classes, pool fills), then the measured pass.
					harness.DepsBench(r.kind, r.mem, w, *opsFlag/10)
					runtime.GC()
					c := harness.DepsBench(r.kind, r.mem, w, *opsFlag)
					em.printf("%-14s %8d %12d %12s %10.2f %14s %18.3f %11.1f %10s\n",
						r.name, w, c.Ops, c.Wall.Round(time.Millisecond),
						float64(c.Ops)/c.Wall.Seconds()/1e6, c.MutexWait.Round(10*time.Microsecond),
						float64(c.LockCycles)/1e9, float64(c.Allocs)/float64(c.Ops)*1000,
						c.GCPause.Round(10*time.Microsecond))
					em.add("deps", r.name, w, nil, map[string]float64{
						"ops": float64(c.Ops), "wall_ns": float64(c.Wall),
						"mops":          float64(c.Ops) / c.Wall.Seconds() / 1e6,
						"mutex_wait_ns": float64(c.MutexWait), "lock_gcyc": float64(c.LockCycles) / 1e9,
						"allocs_per_kop": float64(c.Allocs) / float64(c.Ops) * 1000,
						"gc_pause_ns":    float64(c.GCPause),
					})
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "sched" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		em.printf("scheduler admission path (disjoint submit/finish chains)\n")
		em.printf("%-16s %8s %12s %12s %10s %14s %17s %12s %11s %10s\n",
			"pool", "workers", "ops", "wall", "Mops/s", "mutex-wait", "sched-lock-Gcyc", "steals/kop", "allocs/kop", "gc-pause")
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				for _, p := range harness.SchedPools {
					harness.SchedBench(p.Make, w, *schedOpsFlag/10)
					runtime.GC()
					c, steals := harness.SchedBench(p.Make, w, *schedOpsFlag)
					em.printf("%-16s %8d %12d %12s %10.2f %14s %17.3f %12.2f %11.1f %10s\n",
						p.Name, w, c.Ops, c.Wall.Round(time.Millisecond),
						float64(c.Ops)/c.Wall.Seconds()/1e6, c.MutexWait.Round(10*time.Microsecond),
						float64(c.LockCycles)/1e9, float64(steals)/float64(c.Ops)*1000,
						float64(c.Allocs)/float64(c.Ops)*1000, c.GCPause.Round(10*time.Microsecond))
					em.add("sched", p.Name, w, nil, map[string]float64{
						"ops": float64(c.Ops), "wall_ns": float64(c.Wall),
						"mops":          float64(c.Ops) / c.Wall.Seconds() / 1e6,
						"mutex_wait_ns": float64(c.MutexWait), "lock_gcyc": float64(c.LockCycles) / 1e9,
						"steals_per_kop": float64(steals) / float64(c.Ops) * 1000,
						"allocs_per_kop": float64(c.Allocs) / float64(c.Ops) * 1000,
						"gc_pause_ns":    float64(c.GCPause),
					})
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "throttle" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		em.printf("throttle admission window (shared contended window)\n")
		em.printf("%-8s %8s %8s %12s %12s %10s %14s %20s %10s %11s %10s\n",
			"impl", "workers", "window", "ops", "wall", "Mops/s", "mutex-wait", "throttle-lock-Gcyc", "parks", "allocs/kop", "gc-pause")
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				window := *windowFlag
				if window <= 0 {
					window = w
				}
				for _, kind := range []throttle.Kind{throttle.KindLocked, throttle.KindSharded} {
					harness.ThrottleBench(kind, w, *throttleOpsFlag/10, window)
					runtime.GC()
					c, parks := harness.ThrottleBench(kind, w, *throttleOpsFlag, window)
					em.printf("%-8s %8d %8d %12d %12s %10.2f %14s %20.3f %10d %11.1f %10s\n",
						kind, w, window, c.Ops, c.Wall.Round(time.Millisecond),
						float64(c.Ops)/c.Wall.Seconds()/1e6, c.MutexWait.Round(10*time.Microsecond),
						float64(c.LockCycles)/1e9, parks, float64(c.Allocs)/float64(c.Ops)*1000,
						c.GCPause.Round(10*time.Microsecond))
					em.add("throttle", kind.String(), w, map[string]int64{"window": int64(window)}, map[string]float64{
						"ops": float64(c.Ops), "wall_ns": float64(c.Wall),
						"mops":          float64(c.Ops) / c.Wall.Seconds() / 1e6,
						"mutex_wait_ns": float64(c.MutexWait), "lock_gcyc": float64(c.LockCycles) / 1e9,
						"parks":          float64(parks),
						"allocs_per_kop": float64(c.Allocs) / float64(c.Ops) * 1000,
						"gc_pause_ns":    float64(c.GCPause),
					})
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "replay" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		iters, blocks := *replayItersFlag, *replayBlocksFlag
		em.printf("record-and-replay taskgraph cache (Gauss-Seidel wavefront sweep, empty bodies)\n")
		em.printf("%-14s %8s %10s %8s %12s %12s %14s %11s %10s %9s\n",
			"variant", "workers", "tiles/it", "iters", "wall", "us/iter", "mutex-wait", "allocs/kop", "gc-pause", "overhead")
		variants := []harness.ReplayVariant{harness.ReplayNestWeak, harness.ReplayLiveGraph, harness.ReplayFrozen}
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				var liveGraphPerIter float64
				for _, v := range variants {
					harness.ReplayOverheadBench(v, w, blocks, iters/10+1) // warm-up
					runtime.GC()
					c, tiles := harness.ReplayOverheadBench(v, w, blocks, iters)
					perIter := float64(c.Wall.Microseconds()) / float64(iters)
					cut := "1.00x"
					overhead := 1.0
					switch v {
					case harness.ReplayLiveGraph:
						liveGraphPerIter = perIter
					case harness.ReplayFrozen:
						if perIter > 0 && liveGraphPerIter > 0 {
							// The acceptance metric: live-engine sweeps cost this
							// many times the replayed sweeps' overhead.
							overhead = liveGraphPerIter / perIter
							cut = fmt.Sprintf("%.2fx", overhead)
						}
					default:
						cut = "-"
					}
					em.printf("%-14s %8d %10d %8d %12s %12.1f %14s %11.1f %10s %9s\n",
						v, w, tiles, iters, c.Wall.Round(time.Millisecond), perIter,
						c.MutexWait.Round(10*time.Microsecond), float64(c.Allocs)/float64(c.Ops)*1000,
						c.GCPause.Round(10*time.Microsecond), cut)
					em.add("replay", v.String(), w,
						map[string]int64{"tiles_per_iter": int64(tiles), "iters": int64(iters)},
						map[string]float64{
							"wall_ns": float64(c.Wall), "us_per_iter": perIter,
							"mutex_wait_ns":  float64(c.MutexWait),
							"allocs_per_kop": float64(c.Allocs) / float64(c.Ops) * 1000,
							"gc_pause_ns":    float64(c.GCPause), "overhead_x": overhead,
						})
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "ws" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		iters, n := *wsItersFlag, *wsRangeFlag
		em.printf("worksharing chunk distribution (chained fine-grain loop regions)\n")
		em.printf("%-8s %8s %7s %10s %8s %12s %12s %11s %12s %7s %9s\n",
			"impl", "workers", "grain", "chunks/it", "iters", "wall", "us/iter", "allocs/kop", "helper-chks", "idle", "speedup")
		kinds := []struct {
			name string
			kind core.WorksharingKind
		}{
			{"expand", core.WorksharingExpand},
			{"chunked", core.WorksharingChunked},
		}
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				for _, grain := range wsGrains {
					var expandWall time.Duration
					for _, r := range kinds {
						harness.WSChunkBench(r.kind, w, iters/10+1, grain, n) // warm-up
						runtime.GC()
						res := harness.WSChunkBench(r.kind, w, iters, grain, n)
						speedup := "-"
						ratio := 1.0
						if r.kind == core.WorksharingExpand {
							expandWall = res.Wall
						} else if res.Wall > 0 && expandWall > 0 {
							// The acceptance metric: the per-chunk-task expansion
							// costs this many times the worksharing region.
							ratio = float64(expandWall) / float64(res.Wall)
							speedup = fmt.Sprintf("%.2fx", ratio)
						}
						em.printf("%-8s %8d %7d %10d %8d %12s %12.1f %11.1f %12d %6.1f%% %9s\n",
							r.name, w, grain, res.Chunks/int64(iters), iters, res.Wall.Round(time.Millisecond),
							float64(res.Wall.Microseconds())/float64(iters),
							float64(res.Allocs)/float64(res.Chunks)*1000, res.HelperChunks, res.Idle*100, speedup)
						em.add("ws", r.name, w,
							map[string]int64{"grain": grain, "iters": int64(iters)},
							map[string]float64{
								"wall_ns":           float64(res.Wall),
								"us_per_iter":       float64(res.Wall.Microseconds()) / float64(iters),
								"chunks_per_iter":   float64(res.Chunks / int64(iters)),
								"allocs_per_kchunk": float64(res.Allocs) / float64(res.Chunks) * 1000,
								"helper_chunks":     float64(res.HelperChunks),
								"idle_pct":          res.Idle * 100, "speedup_x": ratio,
							})
					}
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "wait" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		reps, fan := *waitRepsFlag, *waitFanFlag
		em.printf("taskwait blocking strategy (nested parents over spinning leaves)\n")
		em.printf("%-13s %8s %10s %10s %12s %10s %10s %10s %11s %7s\n",
			"impl", "workers", "waits", "inlined", "wall", "us/wait", "parks", "handoffs", "steal-res", "idle")
		kinds := []struct {
			name string
			kind core.TaskwaitKind
		}{
			{"parking", core.TaskwaitParking},
			{"continuation", core.TaskwaitContinuation},
		}
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				for _, r := range kinds {
					harness.WaitBench(r.kind, w, reps/10+1, fan) // warm-up
					runtime.GC()
					res := harness.WaitBench(r.kind, w, reps, fan)
					em.printf("%-13s %8d %10d %10d %12s %10.2f %10d %10d %11d %6.1f%%\n",
						r.name, w, res.Waits, res.Stats.Inlined, res.Wall.Round(time.Millisecond),
						float64(res.Wall.Microseconds())/float64(res.Waits),
						res.Stats.Parks, res.Stats.Handoffs, res.Stats.StealResumes, res.Idle*100)
					em.add("wait", r.name, w,
						map[string]int64{"reps": int64(reps), "fan": int64(fan)},
						map[string]float64{
							"wall_ns": float64(res.Wall), "waits": float64(res.Waits),
							"inlined":       float64(res.Stats.Inlined),
							"us_per_wait":   float64(res.Wall.Microseconds()) / float64(res.Waits),
							"parks":         float64(res.Stats.Parks),
							"handoffs":      float64(res.Stats.Handoffs),
							"steal_resumes": float64(res.Stats.StealResumes),
							"idle_pct":      res.Idle * 100,
						})
				}
			})
		}
	}

	if *modeFlag == "all" || *modeFlag == "locality" {
		if *modeFlag == "all" {
			em.printf("\n")
		}
		ops, spin := *localityOpsFlag, *localitySpinFlag
		em.printf("steal locality (per-group work piles over a two-domain topology)\n")
		em.printf("%-6s %8s %10s %12s %10s %11s %8s %8s %8s %7s\n",
			"topo", "workers", "ops", "wall", "Mops/s", "steals/kop", "sib%", "dom%", "rem%", "cross%")
		for _, w := range workers {
			withGOMAXPROCS(w, func() {
				for _, tp := range harness.LocalityTopologies {
					harness.LocalityBench(tp.Topo, w, ops/10+1, spin) // warm-up
					runtime.GC()
					res := harness.LocalityBench(tp.Topo, w, ops, spin)
					pct := func(lvl int) float64 {
						if res.Steals == 0 {
							return 0
						}
						return 100 * float64(res.StealLevels[lvl]) / float64(res.Steals)
					}
					em.printf("%-6s %8d %10d %12s %10.2f %11.1f %7.1f%% %7.1f%% %7.1f%% %6.1f%%\n",
						tp.Name, w, res.Ops, res.Wall.Round(time.Millisecond),
						float64(res.Ops)/1e6/res.Wall.Seconds(),
						1000*float64(res.Steals)/float64(res.Ops),
						pct(sched.LevelSibling), pct(sched.LevelDomain), pct(sched.LevelRemote),
						res.CrossRate*100)
					em.add("locality", tp.Name, w,
						map[string]int64{"ops": int64(ops), "spin": int64(spin)},
						map[string]float64{
							"wall_ns": float64(res.Wall), "ops": float64(res.Ops),
							"mops":           float64(res.Ops) / 1e6 / res.Wall.Seconds(),
							"steals_per_kop": 1000 * float64(res.Steals) / float64(res.Ops),
							"sib_pct":        pct(sched.LevelSibling),
							"dom_pct":        pct(sched.LevelDomain),
							"rem_pct":        pct(sched.LevelRemote),
							"cross_pct":      res.CrossRate * 100,
						})
				}
			})
		}
	}

	if *modeFlag == "chaos" {
		// Robustness, not contention: every subsystem's failpoint group is
		// armed in turn under one fixed seeded schedule, and the stalls
		// column must read 0 on every row (the watchdog is live the whole
		// time). Runs at the widest configured width — chaos wants the
		// most concurrency the host offers.
		w := workers[len(workers)-1]
		for _, n := range workers {
			if n > w {
				w = n
			}
		}
		seed, rate, iters := *chaosSeedFlag, uint32(*chaosRateFlag), *chaosItersFlag
		em.printf("fault injection (mixed-construct workload, watchdog armed, seed %d, rate 1/%d)\n", seed, rate)
		em.printf("%-12s %8s %7s %10s %12s %12s %10s %8s\n",
			"sites", "workers", "iters", "tasks", "wall", "us/iter", "hits", "stalls")
		var refSum int64
		for i, g := range harness.ChaosGroups {
			withGOMAXPROCS(w, func() {
				harness.ChaosBench(g, seed, rate, w, iters/10+1, 12) // warm-up
				runtime.GC()
				res := harness.ChaosBench(g, seed, rate, w, iters, 12)
				if i == 0 {
					refSum = res.Checksum
				} else if res.Checksum != refSum {
					fmt.Fprintf(os.Stderr, "depbench: chaos row %q checksum %d != off row %d (replay with -chaos-seed=%d)\n",
						g.Name, res.Checksum, refSum, seed)
					os.Exit(1)
				}
				em.printf("%-12s %8d %7d %10d %12s %12.1f %10d %8d\n",
					g.Name, w, iters, res.Tasks, res.Wall.Round(time.Millisecond),
					float64(res.Wall.Microseconds())/float64(iters), res.Hits, res.Stalls)
				em.add("chaos", g.Name, w,
					map[string]int64{"seed": int64(seed), "rate": int64(rate), "iters": int64(iters)},
					map[string]float64{
						"wall_ns": float64(res.Wall), "tasks": float64(res.Tasks),
						"us_per_iter": float64(res.Wall.Microseconds()) / float64(iters),
						"hits":        float64(res.Hits), "stalls": float64(res.Stalls),
					})
				if res.Stalls != 0 {
					fmt.Fprintf(os.Stderr, "depbench: chaos row %q reported %d stalls, expected 0 (replay with -chaos-seed=%d)\n",
						g.Name, res.Stalls, seed)
					os.Exit(1)
				}
			})
		}
		em.printf("expectation: stalls = 0 on every row (failpoints delay, never drop; a stall is a runtime bug)\n")
	}

	if err := em.flush(); err != nil {
		fmt.Fprintf(os.Stderr, "depbench: %v\n", err)
		os.Exit(1)
	}
}
