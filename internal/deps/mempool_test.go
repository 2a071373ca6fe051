package deps

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// Memory-pool tests: the pooled engines must be observably identical to
// the allocate-always reference (same ready sets at every step, same final
// data state, same activity counters), must leak nothing (every pooled
// object back on a free list at quiescence), must reject stale access
// through generation-counted handles, and must actually deliver the
// allocation win the pooling exists for (the ≥5x steady-state gate).

// newSimEngineMem builds a sim over an explicit engine and memory mode.
func newSimEngineMem(t *testing.T, kind EngineKind, universe map[DataID]int64, mem mempool.Kind) *sim {
	return newSimOver(t, NewEngineMem(kind, nil, mem), universe)
}

// runDifferentialMem executes prog in lockstep through the reference and
// the pooled build of the same engine kind, requiring identical ready sets
// at every step, identical final state and stats, quiescence, and — for
// the pooled engine — zero outstanding pool objects (no leaks, nothing
// freed twice: a double free would surface as a duplicate Get of the same
// pointer corrupting the ready sets).
func runDifferentialMem(t *testing.T, kind EngineKind, prog []*simTask, universe map[DataID]int64, seed int64) bool {
	ref := newSimEngineMem(t, kind, universe, mempool.KindReference)
	pool := newSimEngineMem(t, kind, universe, mempool.KindPooled)
	ref.start(prog)
	pool.start(prog)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; ; step++ {
		rl := append([]string(nil), ref.readyLabels()...)
		pl := append([]string(nil), pool.readyLabels()...)
		sort.Strings(rl)
		sort.Strings(pl)
		if !equalStrings(rl, pl) {
			t.Errorf("step %d: ready sets diverged\n  reference: %v\n  pooled:    %v", step, rl, pl)
			return false
		}
		if len(rl) == 0 {
			break
		}
		pick := rl[rng.Intn(len(rl))]
		ref.step(pick)
		pool.step(pick)
		if t.Failed() {
			return false
		}
	}
	if ref.done != ref.total || pool.done != pool.total {
		t.Errorf("lost tasks: reference %d/%d, pooled %d/%d", ref.done, ref.total, pool.done, pool.total)
		return false
	}
	for d := range universe {
		for p := range ref.data[d] {
			if ref.data[d][p] != pool.data[d][p] {
				t.Errorf("final state diverged at data %d elem %d: reference %d, pooled %d",
					d, p, ref.data[d][p], pool.data[d][p])
				return false
			}
		}
	}
	rs, ps := ref.eng.Stats(), pool.eng.Stats()
	if rs != ps {
		t.Errorf("stats diverged:\n  reference: %+v\n  pooled:    %+v", rs, ps)
		return false
	}
	if lf := pool.eng.LiveFragments(); lf != 0 {
		t.Errorf("pooled engine not quiescent: %d live fragments", lf)
		return false
	}
	if _, pooled := ref.eng.MemStats(); pooled {
		t.Error("reference engine reports pooled MemStats")
		return false
	}
	ms, pooled := pool.eng.MemStats()
	if !pooled {
		t.Error("pooled engine reports no MemStats")
		return false
	}
	if n := ms.Outstanding(); n != 0 {
		t.Errorf("pooled engine leaked %d objects at quiescence: %+v", n, ms)
		return false
	}
	return true
}

func TestMemPoolDifferentialFlat(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("differential test instantiates both memory modes explicitly")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := genMultiFlat(rng)
		for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
			if !runDifferentialMem(t, kind, prog, multiUniverse(), seed*29) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestMemPoolDifferentialNestedWeak(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("differential test instantiates both memory modes explicitly")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := genMultiNested(rng, 3)
		for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
			if !runDifferentialMem(t, kind, prog, multiUniverse(), seed*53) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
}

// TestMemPoolRecyclingHappens pins that the pools actually recycle in
// steady state: a long chain over one engine must allocate far fewer nodes
// than it creates (News ≪ Gets), and drain back to zero outstanding.
func TestMemPoolRecyclingHappens(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		e := NewEngineMem(kind, nil, mempool.KindPooled)
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		ivs := []regions.Interval{regions.Iv(0, 64)}
		const ops = 5000
		var prev *Node
		for i := 0; i < ops; i++ {
			nd := e.NewNode(root, "t", nil)
			e.Register(nd, []Spec{{Data: 0, Type: InOut, Ivs: ivs}})
			if prev != nil {
				e.CompleteInto(prev, nil)
			}
			prev = nd
		}
		e.CompleteInto(prev, nil)
		ms, pooled := e.MemStats()
		if !pooled {
			t.Fatalf("%v: engine not pooled", kind)
		}
		if ms.Nodes.Gets < ops {
			t.Fatalf("%v: node gets %d < %d ops", kind, ms.Nodes.Gets, ops)
		}
		// Steady state keeps a bounded working set: the chain holds at most
		// two live nodes plus lane/batch slack, far below the op count.
		if ms.Nodes.News > ops/10 {
			t.Errorf("%v: %d fresh node allocations over %d ops; recycling is not engaging (%+v)",
				kind, ms.Nodes.News, ops, ms.Nodes)
		}
		if ms.Fragments.News > ops/10 {
			t.Errorf("%v: %d fresh fragment allocations over %d ops (%+v)", kind, ms.Fragments.News, ops, ms.Fragments)
		}
		// Root still holds its completion pin until Complete; everything
		// else must be back in the pools.
		e.CompleteInto(root, nil)
		ms, _ = e.MemStats()
		if n := ms.Outstanding(); n != 0 {
			t.Errorf("%v: %d objects outstanding after full drain: %+v", kind, n, ms)
		}
	}
}

// TestNodeRecyclesToParentLane: a drained node goes back to the node-pool
// lane NewNode takes its siblings from — the parent's — where the next node
// created under the same parent finds it. A dependency-free node drains
// outside any shard lock; sending all of those to one fixed lane would put
// every such task's node through one mutex from all workers.
func TestNodeRecyclesToParentLane(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		e := NewEngineMem(kind, nil, mempool.KindPooled)
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		// A parent off lane 0, the lane every lock-free drain used to take.
		var parent *Node
		var spares []*Node
		for parent == nil {
			n := e.NewNode(root, "parent", nil)
			e.Register(n, nil)
			if laneHint(n, nil)%nodePoolLanes != 0 {
				parent = n
			} else {
				spares = append(spares, n)
			}
		}
		child := e.NewNode(parent, "child", nil)
		e.Register(child, nil)
		e.CompleteInto(child, nil)
		next := e.NewNode(parent, "next", nil)
		if next != child {
			t.Errorf("%v: the next node under the same parent is not the recycled one", kind)
		}
		e.Register(next, nil)
		for _, n := range append(spares, next, parent, root) {
			e.CompleteInto(n, nil)
		}
		if ms, _ := e.MemStats(); ms.Outstanding() != 0 {
			t.Errorf("%v: %d pooled objects outstanding: %+v", kind, ms.Outstanding(), ms)
		}
	}
}

// TestRootNodeLaneFromUser: a parentless node — a domain root, which the
// core runtime opens lazily for a task without a depend clause — has no
// parent to hint with, so it takes its lane from its user back-reference
// and recycles into that lane. Domain roots of many tasks must spread over
// the lanes (all sharing lane 0 would put every one of them through one
// mutex), and a task that opens a domain again finds its recycled node.
func TestRootNodeLaneFromUser(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	type task struct{ _ [256]byte } // the size class of core.Task
	lanes := map[int]bool{}
	users := make([]*task, 64)
	for i := range users {
		users[i] = &task{}
		lanes[laneHint(nil, users[i])%nodePoolLanes] = true
	}
	if len(lanes) < nodePoolLanes/2 {
		t.Errorf("64 domain roots use %d of %d node-pool lanes", len(lanes), nodePoolLanes)
	}
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		e := NewEngineMem(kind, nil, mempool.KindPooled)
		for _, u := range users[:8] {
			n := e.NewNode(nil, "domain", u)
			e.Register(n, nil)
			e.CompleteInto(n, nil)
			again := e.NewNode(nil, "domain", u)
			if again != n {
				t.Errorf("%v: a domain root reopened by the same user is not the recycled node", kind)
			}
			e.Register(again, nil)
			e.CompleteInto(again, nil)
		}
		if ms, _ := e.MemStats(); ms.Outstanding() != 0 {
			t.Errorf("%v: %d pooled objects outstanding: %+v", kind, ms.Outstanding(), ms)
		}
	}
}

// handleRecorder captures a generation-checked handle (and the label the
// node carried) for every node the engine creates.
type handleRecorder struct {
	NopObserver
	mu      sync.Mutex
	handles []NodeHandle
}

func (h *handleRecorder) NodeCreated(n, _ *Node) {
	h.mu.Lock()
	h.handles = append(h.handles, n.Handle())
	h.mu.Unlock()
}

func (h *handleRecorder) snapshot() []NodeHandle {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]NodeHandle(nil), h.handles...)
}

// TestMemPoolHandleStaleAccess is the recycling-safety stress (run it with
// -race): worker goroutines drive register→complete chains through a
// pooled sharded engine while an auditor continuously probes the handles
// of completed nodes. The generation guard must reject every stale access
// — a handle whose node was recycled reports ok=false instead of handing
// out the reincarnated node — and the label captured at handle time stays
// readable throughout.
func TestMemPoolHandleStaleAccess(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	rec := &handleRecorder{}
	e := NewEngineMem(EngineSharded, rec, mempool.KindPooled)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	const workers = 4
	ops := 3000
	if testing.Short() {
		ops = 500
	}
	parents := make([]*Node, workers)
	for i := range parents {
		parents[i] = e.NewNode(root, fmt.Sprintf("gen%d", i), nil)
		e.Register(parents[i], nil)
	}
	stop := make(chan struct{})
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range rec.snapshot() {
				if h.Label() == "" {
					t.Error("captured label lost")
					return
				}
				// Valid() and Node() race with recycling by design; the
				// generation check must stay race-free and definitive.
				if n, ok := h.Node(); ok && n == nil {
					t.Error("handle returned ok with nil node")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := DataID(i)
			ivs := []regions.Interval{regions.Iv(0, 16)}
			var prev *Node
			for n := 0; n < ops; n++ {
				nd := e.NewNode(parents[i], fmt.Sprintf("w%d.%d", i, n), nil)
				e.Register(nd, []Spec{{Data: data, Type: InOut, Ivs: ivs}})
				if prev != nil {
					e.CompleteInto(prev, nil)
				}
				prev = nd
			}
			e.CompleteInto(prev, nil)
		}(i)
	}
	wg.Wait()
	close(stop)
	auditor.Wait()
	for _, p := range parents {
		e.CompleteInto(p, nil)
	}
	e.CompleteInto(root, nil)
	// Everything has drained: every handle must now be stale, proving the
	// recycler bumped each node's generation exactly when it reclaimed it.
	stale, live := 0, 0
	for _, h := range rec.snapshot() {
		if h.Valid() {
			live++
		} else {
			stale++
		}
	}
	if live != 0 {
		t.Errorf("%d handles still valid after full drain (stale %d); nodes escaped recycling", live, stale)
	}
	ms, _ := e.MemStats()
	if n := ms.Outstanding(); n != 0 {
		t.Errorf("%d objects outstanding after drain: %+v", n, ms)
	}
}

// chainCycle runs one steady-state register→complete step; prev is the
// previous step's node (completed here), and the returned node feeds the
// next call.
func chainCycle(e Engine, parent, prev *Node, spec []Spec, buf []*Node) *Node {
	nd := e.NewNode(parent, "t", nil)
	e.Register(nd, spec)
	if prev != nil {
		e.CompleteInto(prev, buf[:0])
	}
	return nd
}

// weakCascadeCycle runs one steady-state weakwait-cascade step: an outer
// task with a weak inout over the whole range weakwaits over five
// children whose partially overlapping reader, reduction, and writer
// accesses split the outer domain's interval map and grow its cells'
// reader/reduction history lists — the workload whose remaining
// allocations are the pooled cellState lists.
// weakCascadeSpecs are the cascade cycle's depend clauses, hoisted so the
// steady-state measurement counts engine allocations, not the driver's.
var weakCascadeSpecs = struct {
	outer, r1, r2, red, w []Spec
}{
	outer: []Spec{{Data: 0, Type: InOut, Weak: true, Ivs: []regions.Interval{regions.Iv(0, 64)}}},
	r1:    []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(0, 32)}}},
	r2:    []Spec{{Data: 0, Type: In, Ivs: []regions.Interval{regions.Iv(8, 48)}}}, // splits the reader cells
	red:   []Spec{{Data: 0, Type: Red, Ivs: []regions.Interval{regions.Iv(32, 64)}}},
	w:     []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 64)}}},
}

func weakCascadeCycle(e Engine, gen *Node, buf []*Node, scratch []*Node) {
	outer := e.NewNode(gen, "outer", nil)
	e.Register(outer, weakCascadeSpecs.outer)
	mk := func(label string, specs []Spec) *Node {
		n := e.NewNode(outer, label, nil)
		e.Register(n, specs)
		return n
	}
	scratch = scratch[:0]
	scratch = append(scratch, mk("r1", weakCascadeSpecs.r1))
	scratch = append(scratch, mk("r2", weakCascadeSpecs.r2))
	scratch = append(scratch, mk("red1", weakCascadeSpecs.red))
	scratch = append(scratch, mk("red2", weakCascadeSpecs.red))
	// The writer orders after the readers and the reduction group and
	// dissolves the history.
	scratch = append(scratch, mk("w", weakCascadeSpecs.w))
	e.BodyDoneInto(outer, buf[:0])
	for _, n := range scratch {
		e.CompleteInto(n, buf[:0])
	}
	e.CompleteInto(outer, buf[:0])
}

// TestMemPoolAllocGate is the steady-state allocation gate of the pooled
// mode: after warm-up, a cycle through the pooled sharded engine must
// allocate at least 5x less than through the reference build. Two
// workloads: the disjoint submit→complete chain, and a deep weakwait
// cascade whose interval-map splits exercise the pooled cellState
// reader/reduction lists. (In practice the pooled cycles are at or near
// zero allocations; the ratio gate keeps the comparison robust to harness
// noise.)
func TestMemPoolAllocGate(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	gate := func(t *testing.T, measure func(mem mempool.Kind) float64) {
		t.Helper()
		ref := measure(mempool.KindReference)
		pooled := measure(mempool.KindPooled)
		t.Logf("steady-state allocs/op: reference %.2f, pooled %.2f", ref, pooled)
		if pooled*5 > ref {
			t.Errorf("alloc gate failed: pooled %.2f allocs/op is not ≥5x below reference %.2f", pooled, ref)
		}
	}
	t.Run("chain", func(t *testing.T) {
		gate(t, func(mem mempool.Kind) float64 {
			e := NewEngineMem(EngineSharded, nil, mem)
			root := e.NewNode(nil, "root", nil)
			e.Register(root, nil)
			parent := e.NewNode(root, "gen", nil)
			e.Register(parent, nil)
			spec := []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 64)}}}
			buf := make([]*Node, 0, 4)
			var prev *Node
			for i := 0; i < 256; i++ { // warm-up: pools filled, maps grown
				prev = chainCycle(e, parent, prev, spec, buf)
			}
			allocs := testing.AllocsPerRun(2000, func() {
				prev = chainCycle(e, parent, prev, spec, buf)
			})
			return allocs
		})
	})
	t.Run("weakwait-cascade", func(t *testing.T) {
		gate(t, func(mem mempool.Kind) float64 {
			e := NewEngineMem(EngineSharded, nil, mem)
			root := e.NewNode(nil, "root", nil)
			e.Register(root, nil)
			gen := e.NewNode(root, "gen", nil)
			e.Register(gen, nil)
			buf := make([]*Node, 0, 8)
			scratch := make([]*Node, 0, 5)
			for i := 0; i < 64; i++ { // warm-up
				weakCascadeCycle(e, gen, buf, scratch)
			}
			return testing.AllocsPerRun(500, func() {
				weakCascadeCycle(e, gen, buf, scratch)
			})
		})
	})
}

// TestMemPoolWeakCascadeDrains pins the list-pool leak accounting: after
// the cascade workload fully drains, every pooled reader/reduction list
// must be back on a free list, and the pooled run must actually have
// recycled lists (Gets well above News).
func TestMemPoolWeakCascadeDrains(t *testing.T) {
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		e := NewEngineMem(kind, nil, mempool.KindPooled)
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		gen := e.NewNode(root, "gen", nil)
		e.Register(gen, nil)
		buf := make([]*Node, 0, 8)
		scratch := make([]*Node, 0, 5)
		for i := 0; i < 200; i++ {
			weakCascadeCycle(e, gen, buf, scratch)
		}
		e.CompleteInto(gen, nil)
		e.CompleteInto(root, nil)
		ms, pooled := e.MemStats()
		if !pooled {
			t.Fatalf("%v: engine not pooled", kind)
		}
		if n := ms.Outstanding(); n != 0 {
			t.Errorf("%v: %d objects outstanding after drain: %+v", kind, n, ms)
		}
		if ms.FragLists.Gets == 0 {
			t.Errorf("%v: cascade exercised no pooled history lists", kind)
		}
		if ms.FragLists.News > ms.FragLists.Gets/10 {
			t.Errorf("%v: %d fresh list allocations over %d gets; list recycling is not engaging",
				kind, ms.FragLists.News, ms.FragLists.Gets)
		}
	}
}

// raceEnabled is set by race_enabled_test.go in race-instrumented builds.
var raceEnabled = false

// TestMemPoolW1Parity is the regression guard on the uncontended case: the
// pooled engine's free-list hops must not cost materially more than plain
// allocation when there is no GC pressure to win back. Mirrors
// TestSchedW1Parity / TestThrottleW1Parity.
func TestMemPoolW1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in short mode")
	}
	if raceEnabled {
		t.Skip("timing guard; race instrumentation taxes the pooled path's atomics disproportionately")
	}
	if testEngineKind != EngineGlobal {
		t.Skip("memory-mode test instantiates its engines explicitly")
	}
	const ops = 100_000
	const trials = 5
	spec := []Spec{{Data: 0, Type: InOut, Ivs: []regions.Interval{regions.Iv(0, 64)}}}
	run := func(mem mempool.Kind) time.Duration {
		e := NewEngineMem(EngineSharded, nil, mem)
		root := e.NewNode(nil, "root", nil)
		e.Register(root, nil)
		parent := e.NewNode(root, "gen", nil)
		e.Register(parent, nil)
		buf := make([]*Node, 0, 4)
		var prev *Node
		start := time.Now()
		for i := 0; i < ops; i++ {
			prev = chainCycle(e, parent, prev, spec, buf)
		}
		e.CompleteInto(prev, nil)
		return time.Since(start)
	}
	best := map[mempool.Kind]time.Duration{
		mempool.KindReference: 1<<63 - 1,
		mempool.KindPooled:    1<<63 - 1,
	}
	// Interleave trials so a transient stall hits both modes alike; take
	// the best trial per mode to filter noise (see TestSchedW1Parity).
	for trial := 0; trial < trials; trial++ {
		for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
			runtime.GC()
			if d := run(mem); d < best[mem] {
				best[mem] = d
			}
		}
	}
	if f := float64(best[mempool.KindPooled]) / float64(best[mempool.KindReference]); f > 1.5 {
		t.Errorf("pooled w=1: %.2fx slower than reference (%v vs %v); free-list fast path regressed",
			f, best[mempool.KindPooled], best[mempool.KindReference])
	}
}
