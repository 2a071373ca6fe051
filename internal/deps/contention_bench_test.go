package deps

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// Engine contention benchmarks: w worker goroutines drive independent
// register → complete → grant chains through one engine. Under the
// disjoint workload every worker owns its own data object, so the sharded
// engine gives each worker a private lock while the global engine
// serializes all of them behind one mutex — the contention pathology this
// benchmark quantifies. The shared workload puts every worker on the same
// data object (one hot shard), which bounds the sharded engine's worst
// case.
//
// GOMAXPROCS is raised to the worker count for the duration, so the
// contention is real even on small hosts (oversubscribed OS threads
// convoying on one mutex is exactly the production pathology).

// benchChains runs b.N register+complete chain steps split over w
// goroutines; dataFor assigns each worker its data object. Completion goes
// through CompleteInto with a per-goroutine scratch buffer — the runtime's
// steady-state calling convention — so the allocs/op column isolates the
// engine's own allocation behavior (the memory modes differ by >10x here;
// TestMemPoolAllocGate enforces the ≥5x floor).
func benchChains(b *testing.B, kind EngineKind, mem mempool.Kind, w int, dataFor func(worker int) DataID) {
	prev := runtime.GOMAXPROCS(0)
	if w > prev {
		runtime.GOMAXPROCS(w)
		defer runtime.GOMAXPROCS(prev)
	}
	// Engine ops allocate (nodes, fragments, interval-map entries); on
	// small oversubscribed hosts the collector's own locks would otherwise
	// drown the engine locks this benchmark is about.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	b.ReportAllocs()
	e, _, parents := newChainEngine(kind, mem, w)
	perW := (b.N + w - 1) / w
	b.ResetTimer()
	runEngineChains(e, parents, perW, dataFor)
}

// newChainEngine builds an engine with a registered root and one
// registered generator parent per worker: chains of different workers are
// fully independent, as if produced by parallel nesting tasks.
func newChainEngine(kind EngineKind, mem mempool.Kind, w int) (Engine, *Node, []*Node) {
	e := NewEngineMem(kind, nil, mem)
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	parents := make([]*Node, w)
	for i := range parents {
		parents[i] = e.NewNode(root, fmt.Sprintf("gen%d", i), nil)
		e.Register(parents[i], nil)
	}
	return e, root, parents
}

// chainCounts are what runEngineChains observed: the registrations that
// were immediately ready and the readiness grants the completions handed
// out.
type chainCounts struct {
	readyAtRegister, granted int64
}

// runEngineChains drives one chain of perW register → complete steps per
// generator parent, each on its own goroutine, and returns when every chain
// has completed its last node.
func runEngineChains(e Engine, parents []*Node, perW int, dataFor func(worker int) DataID) chainCounts {
	var ready, granted atomic.Int64
	var wg sync.WaitGroup
	for i := range parents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := dataFor(i)
			ivs := []regions.Interval{regions.Iv(int64(i)*64, int64(i)*64+64)}
			spec := []Spec{{Data: data, Type: InOut, Ivs: ivs}}
			buf := make([]*Node, 0, 4)
			var prev *Node
			var r, g int64
			for n := 0; n < perW; n++ {
				nd := e.NewNode(parents[i], "t", nil)
				if e.Register(nd, spec) {
					r++
				}
				if prev != nil {
					buf = e.CompleteInto(prev, buf[:0]) // releases, granting readiness to nd
					g += int64(len(buf))
				}
				prev = nd
			}
			if prev != nil {
				g += int64(len(e.CompleteInto(prev, buf[:0])))
			}
			ready.Add(r)
			granted.Add(g)
		}(i)
	}
	wg.Wait()
	return chainCounts{readyAtRegister: ready.Load(), granted: granted.Load()}
}

// benchMems is the memory-mode dimension of the contention benchmarks:
// the allocate-always reference and the pooled free lists.
var benchMems = []struct {
	name string
	mem  mempool.Kind
}{
	{"", mempool.KindReference}, // bare name: comparable with historical runs
	{"pool", mempool.KindPooled},
}

// BenchmarkSubmitDisjoint: every worker registers and releases over its
// own data object — the embarrassingly-shardable case the sharded engine
// is built for. The */pool variants recycle through the mempool free
// lists; compare the allocs/op column against the bare variants.
func BenchmarkSubmitDisjoint(b *testing.B) {
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		for _, m := range benchMems {
			name := kind.String() + m.name
			if m.name != "" {
				name = kind.String() + "-" + m.name
			}
			for _, w := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/w=%d", name, w), func(b *testing.B) {
					benchChains(b, kind, m.mem, w, func(worker int) DataID { return DataID(worker) })
				})
			}
		}
	}
}

// BenchmarkSubmitShared: every worker hammers the same data object (the
// intervals stay disjoint, so no cross-worker dependencies form — only
// lock contention differs). One hot shard degenerates the sharded engine
// to a global lock; this bounds its overhead in the worst case.
func BenchmarkSubmitShared(b *testing.B) {
	for _, kind := range []EngineKind{EngineGlobal, EngineSharded} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w=%d", kind, w), func(b *testing.B) {
				benchChains(b, kind, mempool.KindReference, w, func(int) DataID { return 0 })
			})
		}
	}
}

// TestSubmitChainKernel drives every engine × memory row of
// BenchmarkSubmitDisjoint through the benchmark's own chain kernel at a
// tiny size and checks the work it measures: each chain's first node is
// ready at registration, every later node is granted by exactly its
// predecessor's completion, and the engine holds no live fragment once the
// generators and the root complete.
func TestSubmitChainKernel(t *testing.T) {
	rows := []struct {
		name string
		kind EngineKind
		mem  mempool.Kind
	}{
		{"global", EngineGlobal, mempool.KindReference},
		{"sharded", EngineSharded, mempool.KindReference},
		{"sharded-pool", EngineSharded, mempool.KindPooled},
	}
	const w, perW = 2, 1000
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			e, root, parents := newChainEngine(r.kind, r.mem, w)
			got := runEngineChains(e, parents, perW, func(worker int) DataID { return DataID(worker) })
			if got.readyAtRegister != w {
				t.Errorf("%d registrations ready immediately, want %d (one chain head per worker)", got.readyAtRegister, w)
			}
			if want := int64(w * (perW - 1)); got.granted != want {
				t.Errorf("completions granted %d nodes, want %d", got.granted, want)
			}
			for _, p := range parents {
				if rdy := e.CompleteInto(p, nil); len(rdy) != 0 {
					t.Errorf("completing a generator readied %d nodes, want 0", len(rdy))
				}
			}
			e.CompleteInto(root, nil)
			if live := e.LiveFragments(); live != 0 {
				t.Errorf("LiveFragments = %d after the run, want 0", live)
			}
		})
	}
}
