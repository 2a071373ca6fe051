package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/regions"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/throttle"
)

// Single-layer drives: each times calls into one internal package's public
// functions with nothing else running, so a layer's cost is known apart
// from the program around it. The deps, regions and replay drives are fed
// the depend-spec stream captured from the workload; the sched, throttle
// and mempool drives have no input and measure the same thing on every
// workload.

// driveSize is how long the stream-fed drives repeat their pass and how
// many operations the fixed drives make; -quick cuts both tenfold.
type driveSize struct {
	target time.Duration
	ops    int
}

func driveSizeFor(quick bool) driveSize {
	if quick {
		return driveSize{target: 15 * time.Millisecond, ops: 20_000}
	}
	return driveSize{target: 150 * time.Millisecond, ops: 200_000}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ----------------------------------------------------------------- deps

type depsDrive struct {
	registerNs, releaseNs float64 // per task
	allocsPerOp           float64
	liveFragmentsEnd      int64
}

// driveNode is one captured task in the replayed task tree.
type driveNode struct {
	task     *capturedTask
	idx      int32
	parent   int32 // index of the submitter; -1 for the root
	children []int32
	node     *deps.Node
	pending  int32 // unfinished children, plus one for the body
}

// buildTree links the captured tasks into the tree their submitters form.
// Index 0 is the root body. A task's body span is not known to the capture,
// only its Submit span, so bodies are matched to tasks through the trace of
// the capture rep: bodyOf maps a body span to the Submit span that caused
// it.
func buildTree(tasks []capturedTask, bodyOf map[uint64]uint64) []driveNode {
	nodes := make([]driveNode, len(tasks)+1)
	nodes[0].parent = -1
	for i := range nodes {
		nodes[i].idx = int32(i)
	}
	bySubmit := make(map[uint64]int32, len(tasks))
	for i := range tasks {
		bySubmit[tasks[i].submit] = int32(i + 1)
	}
	for i := range tasks {
		t := &tasks[i]
		n := &nodes[i+1]
		n.task = t
		// Calls made inside a Graph region carry the region's span as
		// submitter; bodyOf resolves it to nothing and the task falls to
		// the root, which is where the region's owner submitted it from.
		n.parent = bySubmit[bodyOf[t.submitter]]
		nodes[n.parent].children = append(nodes[n.parent].children, int32(i+1))
	}
	return nodes
}

// driveDeps replays the stream single-threaded into a pooled engine: a
// ready task registers all of its children in submit order (timed as
// register), then its body is done and, once its children are, it
// completes (timed as release); tasks made ready run first-in first-out.
// Taskwait and Graph barriers are not replayed — they never reach the
// engine. The first pass warms the engine's pools and is not measured.
func driveDeps(nodes []driveNode, size driveSize) depsDrive {
	var out depsDrive
	ops := len(nodes) - 1
	if ops == 0 {
		return out
	}
	eng := deps.NewEngineMem(deps.EngineAuto, nil, mempool.KindPooled)
	queue := make([]int32, 0, len(nodes))
	var ready []*deps.Node
	var regNs, totalNs int64

	var complete func(i int32)
	complete = func(i int32) {
		n := &nodes[i]
		ready = eng.CompleteInto(n.node, ready)
		if n.parent >= 0 {
			p := &nodes[n.parent]
			if p.pending--; p.pending == 0 {
				complete(n.parent)
			}
		}
	}
	pass := func() {
		start := time.Now()
		root := &nodes[0]
		root.node = eng.NewNode(nil, "root", root)
		eng.Register(root.node, nil)
		queue = append(queue[:0], 0)
		for head := 0; head < len(queue); head++ {
			i := queue[head]
			n := &nodes[i]
			n.pending = int32(len(n.children)) + 1
			if len(n.children) > 0 {
				t0 := time.Now()
				for _, c := range n.children {
					ch := &nodes[c]
					ch.node = eng.NewNode(n.node, "t", ch)
					if eng.Register(ch.node, ch.task.specs) {
						queue = append(queue, c)
					}
				}
				regNs += int64(time.Since(t0))
			}
			ready = ready[:0]
			if n.task != nil && n.task.weakWait {
				ready = eng.BodyDoneInto(n.node, ready)
			}
			if n.pending--; n.pending == 0 {
				complete(i)
			}
			for _, r := range ready {
				queue = append(queue, r.User.(*driveNode).idx)
			}
		}
		totalNs += int64(time.Since(start))
		if len(queue) != len(nodes) {
			panic(fmt.Sprintf("bench: deps drive ran %d of %d tasks", len(queue), len(nodes)))
		}
	}

	pass()
	regNs, totalNs = 0, 0
	passes := 0
	m0 := mallocs()
	for begin := time.Now(); passes == 0 || time.Since(begin) < size.target; passes++ {
		pass()
	}
	m1 := mallocs()
	n := float64(passes * ops)
	out.registerNs = float64(regNs) / n
	out.releaseNs = float64(totalNs-regNs) / n
	out.allocsPerOp = float64(m1-m0) / n
	out.liveFragmentsEnd = eng.LiveFragments()
	return out
}

// -------------------------------------------------------------- regions

type regionsDrive struct {
	opNs        float64
	entriesPeak int
}

// driveRegions runs the captured intervals through one interval map the
// way the engine's per-domain maps see them: Materialize then VisitRange
// per access, and a Remove of the access made window accesses earlier, so
// the map holds a sliding window of the stream.
func driveRegions(tasks []capturedTask, size driveSize) regionsDrive {
	var ivs []regions.Interval
	for i := range tasks {
		for _, s := range tasks[i].specs {
			ivs = append(ivs, s.Ivs...)
		}
	}
	var out regionsDrive
	if len(ivs) == 0 {
		return out
	}
	const window = 1024
	m := regions.NewMap[int32](nil)
	var calls int
	start := time.Now()
	for calls == 0 || time.Since(start) < size.target {
		m.Reset()
		for i, iv := range ivs {
			m.Materialize(iv, func(regions.Interval) int32 { return 0 }, nil)
			m.VisitRange(iv, func(_ regions.Interval, v *int32) { *v++ })
			calls += 2
			if i >= window {
				m.Remove(ivs[i-window])
				calls++
			}
			out.entriesPeak = max(out.entriesPeak, m.Count())
		}
	}
	out.opNs = float64(time.Since(start)) / float64(calls)
	return out
}

// ---------------------------------------------------------------- sched

type schedDrive struct {
	chainNs, fanoutNs, stealsPerOp float64
}

// waitIdle waits for a pool's runner goroutines to retire their tokens.
func waitIdle(q *sched.Stealing[int]) {
	for deadline := time.Now().Add(5 * time.Second); !q.Idle() && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// driveSched measures the stealing pool two ways. chain: each of w runners
// submits its own successor from its own worker and finishes, so all work
// is self-popped. fanout: one producer submits every item from its worker
// and the other w-1 workers can only steal.
func driveSched(w int, size driveSize) schedDrive {
	ops := size.ops
	var out schedDrive

	perW := ops / w
	remaining := make([]atomic.Int64, w)
	for i := range remaining {
		remaining[i].Store(int64(perW))
	}
	var done sync.WaitGroup
	done.Add(w)
	var q *sched.Stealing[int]
	q = sched.NewStealing(w, func(chain, worker int) {
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
	start := time.Now()
	for i := 0; i < w; i++ {
		q.Submit(i, -1)
	}
	done.Wait()
	out.chainNs = float64(time.Since(start)) / float64(perW)
	waitIdle(q)

	const producer, leaf = 0, 1
	var leaves sync.WaitGroup
	leaves.Add(ops)
	var f *sched.Stealing[int]
	f = sched.NewStealing(w, func(item, worker int) {
		for {
			if item == producer {
				for i := 0; i < ops; i++ {
					f.Submit(leaf, worker)
				}
			} else {
				leaves.Done()
			}
			next, ok := f.Finish(worker)
			if !ok {
				return
			}
			item = next
		}
	})
	start = time.Now()
	f.Submit(producer, -1)
	leaves.Wait()
	out.fanoutNs = float64(time.Since(start)) / float64(ops)
	waitIdle(f)
	out.stealsPerOp = float64(f.Stats().Steals) / float64(ops)
	return out
}

// ------------------------------------------------------------- throttle

// driveThrottle times Reserve→Entered→Started cycles from w submitters
// sharing one window of the given bound.
func driveThrottle(w, window int, size driveSize) float64 {
	win := throttle.New(throttle.KindAuto, window, w)
	perW := size.ops / w
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, prepaid := win.Reserve(g, nil); prepaid {
					win.EnteredReserved()
				} else {
					win.Entered(1)
				}
				win.Started(g)
			}
		}(g)
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(perW)
}

// -------------------------------------------------------------- mempool

// driveMempool times Get+Put pairs on a w-lane pool, one goroutine per
// lane, each cycling a small working set so lanes refill and flush.
func driveMempool(w int, size driveSize) float64 {
	type obj struct{ _ [64]byte }
	pool := mempool.NewPool(w, func() *obj { return new(obj) })
	perW := 2 * size.ops / w
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held [8]*obj
			for i := 0; i < perW; i++ {
				slot := i % len(held)
				if held[slot] != nil {
					pool.Put(g, held[slot])
				}
				held[slot] = pool.Get(g)
			}
			for _, o := range held {
				if o != nil {
					pool.Put(g, o)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(perW)
}

// --------------------------------------------------------------- replay

// driveReplayFP times what a replayed Submit does per task in place of the
// engine: fingerprint the depend entries and compare with the recorded
// fingerprint.
func driveReplayFP(tasks []capturedTask, size driveSize) float64 {
	if len(tasks) == 0 {
		return 0
	}
	recorded := make([]replay.TaskFP, len(tasks))
	for i := range tasks {
		recorded[i] = replay.AppendFP(nil, tasks[i].weakWait, false, tasks[i].specs)
	}
	var fp replay.TaskFP
	var n, equal int
	start := time.Now()
	for n == 0 || time.Since(start) < size.target {
		for i := range tasks {
			fp = replay.AppendFP(fp[:0], tasks[i].weakWait, false, tasks[i].specs)
			if fp.Equal(recorded[i]) {
				equal++
			}
		}
		n += len(tasks)
	}
	ns := float64(time.Since(start)) / float64(n)
	if equal != n {
		panic("bench: replay fingerprint of an unchanged task differs")
	}
	return ns
}
