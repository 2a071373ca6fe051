package deps

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/mempool"
)

// NewEngine returns an engine of the given kind with the reference
// (allocate-always) memory mode. obs may be nil. EngineAuto resolves to
// the sharded engine.
func NewEngine(kind EngineKind, obs Observer) Engine {
	return NewEngineMem(kind, obs, mempool.KindReference)
}

// NewShardedEngine returns a sharded engine with the reference memory
// mode. obs may be nil; callbacks are serialized, so observers written for
// the global engine work unchanged.
func NewShardedEngine(obs Observer) *ShardedEngine {
	return newShardedEngine(obs, false)
}

// testEngineKind selects the Engine implementation the whole test suite
// runs against. TestMain runs the suite twice — once per implementation —
// so every scenario, edge case, and property test in this package verifies
// both the global-lock and the sharded engine.
var testEngineKind = EngineGlobal

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	// Benchmark invocations measure both engines explicitly; re-running the
	// whole suite would just report every benchmark twice.
	benching := flag.Lookup("test.bench") != nil && flag.Lookup("test.bench").Value.String() != ""
	if code == 0 && !benching {
		testEngineKind = EngineSharded
		fmt.Println("deps: re-running test suite with the sharded engine")
		code = m.Run()
	}
	os.Exit(code)
}

// The test harness simulates a runtime on top of the engine: it executes
// ready nodes one at a time (in a driver-chosen order), applies their strong
// accesses to a model array, and verifies that every read observes exactly
// the value the sequential (pre-order) execution of the program would
// produce. This is the serializability criterion the dependency system must
// enforce no matter how readiness is interleaved.

// simTask is a declarative task description.
type simTask struct {
	label    string
	specs    []Spec
	weakwait bool
	children []*simTask
	// releaseAfter, if non-nil, is issued as a release directive after the
	// children are created (while the body is conceptually still running).
	releaseAfter []Spec

	seq int // pre-order sequence number, assigned by the reference walk
}

// sim drives the engine for a program rooted at a synthetic root task.
type sim struct {
	t        *testing.T
	eng      Engine
	data     map[DataID][]int
	expect   map[string]map[delem]int // label -> (data, element) -> expected read value
	finalRef map[DataID][]int
	ready    []*Node
	nodes    map[*Node]*simNode
	done     int
	total    int
}

// delem addresses one element of one data object in the expectation maps.
type delem struct {
	d DataID
	p int64
}

type simNode struct {
	def       *simTask
	node      *Node
	parent    *simNode
	pending   int // direct children not yet fully complete
	bodyDone  bool
	completed bool
}

func newSim(t *testing.T, universe map[DataID]int64) *sim {
	return newSimEngine(t, testEngineKind, universe)
}

// newSimEngine builds a sim over an explicit engine implementation; the
// differential tests use it to drive both engines in lockstep.
func newSimEngine(t *testing.T, kind EngineKind, universe map[DataID]int64) *sim {
	return newSimOver(t, NewEngine(kind, nil), universe)
}

// newSimOver builds a sim over an engine the caller constructed.
func newSimOver(t *testing.T, eng Engine, universe map[DataID]int64) *sim {
	s := &sim{
		t:      t,
		eng:    eng,
		data:   make(map[DataID][]int),
		expect: make(map[string]map[delem]int),
		nodes:  make(map[*Node]*simNode),
	}
	for d, n := range universe {
		s.data[d] = make([]int, n)
	}
	return s
}

// reference performs the sequential pre-order walk, assigning sequence
// numbers and computing the expected value of every strong read.
func (s *sim) reference(tasks []*simTask) {
	ref := make(map[DataID][]int)
	for d, arr := range s.data {
		ref[d] = make([]int, len(arr))
	}
	seq := 0
	var walk func(ts []*simTask)
	walk = func(ts []*simTask) {
		for _, def := range ts {
			seq++
			def.seq = seq
			exp := make(map[delem]int)
			for _, spec := range def.specs {
				if spec.Weak {
					continue
				}
				for _, iv := range spec.Ivs {
					for p := iv.Lo; p < iv.Hi; p++ {
						switch {
						case spec.Type == Red:
							// Reductions commute: model as increments, so
							// any group order yields the same value. Writes
							// use a large stride to stay distinguishable.
							ref[spec.Data][p]++
						case spec.Type == In:
							exp[delem{spec.Data, p}] = ref[spec.Data][p]
						case spec.Type == InOut:
							exp[delem{spec.Data, p}] = ref[spec.Data][p]
							ref[spec.Data][p] = seq * 1000
						default: // Out
							ref[spec.Data][p] = seq * 1000
						}
					}
				}
			}
			s.expect[def.label] = exp
			walk(def.children)
		}
	}
	walk(tasks)
	s.total = seq
	// Keep final reference state for the end-of-run comparison.
	s.finalRef = ref
}

// run executes the program, choosing among ready tasks with pick (which
// receives the current ready count and returns an index). It fails the test
// on any serialization violation or deadlock.
func (s *sim) run(tasks []*simTask, pick func(n int) int) {
	s.reference(tasks)
	root := s.eng.NewNode(nil, "root", nil)
	s.eng.Register(root, nil)
	rootSim := &simNode{def: &simTask{label: "root", children: tasks}, node: root}
	s.nodes[root] = rootSim
	s.execute(rootSim)
	for len(s.ready) > 0 {
		i := pick(len(s.ready))
		n := s.ready[i]
		s.ready = append(s.ready[:i], s.ready[i+1:]...)
		s.execute(s.nodes[n])
	}
	if s.done != s.total {
		s.t.Fatalf("deadlock or lost tasks: completed %d of %d", s.done, s.total)
	}
	for d, arr := range s.data {
		for p, v := range arr {
			if want := s.finalRef[d][p]; v != want {
				s.t.Fatalf("final state mismatch at data %d elem %d: got %d, want %d", d, p, v, want)
			}
		}
	}
}

// runRandom executes with a seeded random ready-order.
func (s *sim) runRandom(tasks []*simTask, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.run(tasks, func(n int) int { return rng.Intn(n) })
}

var _ = fmt.Sprintf // keep fmt for debug helpers

func (s *sim) execute(sn *simNode) {
	def := sn.def
	// Apply strong effects (the task body).
	exp := s.expect[def.label]
	for _, spec := range def.specs {
		if spec.Weak {
			continue
		}
		for _, iv := range spec.Ivs {
			for p := iv.Lo; p < iv.Hi; p++ {
				switch {
				case spec.Type == Red:
					s.data[spec.Data][p]++
				case spec.Type == In:
					if got, want := s.data[spec.Data][p], exp[delem{spec.Data, p}]; got != want {
						s.t.Fatalf("task %q read data %d elem %d = %d, want %d (serialization violated)",
							def.label, spec.Data, p, got, want)
					}
				case spec.Type == InOut:
					if got, want := s.data[spec.Data][p], exp[delem{spec.Data, p}]; got != want {
						s.t.Fatalf("task %q read data %d elem %d = %d, want %d (serialization violated)",
							def.label, spec.Data, p, got, want)
					}
					s.data[spec.Data][p] = def.seq * 1000
				default: // Out
					s.data[spec.Data][p] = def.seq * 1000
				}
			}
		}
	}
	// Instantiate children (the nesting half of the body).
	for _, c := range def.children {
		cn := s.eng.NewNode(sn.node, c.label, nil)
		if c.weakwait && len(c.specs) > 0 {
			cn.MarkWeakWait() // as the runtime marks it
		}
		csn := &simNode{def: c, node: cn, parent: sn}
		s.nodes[cn] = csn
		sn.pending++
		if s.eng.Register(cn, c.specs) {
			s.ready = append(s.ready, cn)
		}
	}
	if def.releaseAfter != nil {
		s.enqueue(s.eng.ReleaseRegions(sn.node, def.releaseAfter))
	}
	if def.weakwait {
		s.enqueue(s.eng.BodyDone(sn.node))
	}
	sn.bodyDone = true
	if sn.pending == 0 {
		s.complete(sn)
	}
}

func (s *sim) complete(sn *simNode) {
	if sn.completed {
		s.t.Fatalf("task %q completed twice", sn.def.label)
	}
	sn.completed = true
	if sn.def.label != "root" {
		s.done++
	}
	s.enqueue(s.eng.Complete(sn.node))
	if sn.parent != nil {
		sn.parent.pending--
		if sn.parent.pending == 0 && sn.parent.bodyDone {
			s.complete(sn.parent)
		}
	}
}

func (s *sim) enqueue(nodes []*Node) {
	s.ready = append(s.ready, nodes...)
}

// isReady reports whether the node for the given label is currently in the
// ready list (used by scenario tests to assert precise readiness points).
func (s *sim) isReady(label string) bool {
	for _, n := range s.ready {
		if s.nodes[n].def.label == label {
			return true
		}
	}
	return false
}

// step executes the ready task with the given label, failing if not ready.
func (s *sim) step(label string) {
	for i, n := range s.ready {
		if s.nodes[n].def.label == label {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			s.execute(s.nodes[n])
			return
		}
	}
	s.t.Fatalf("task %q is not ready; ready = %v", label, s.readyLabels())
}

func (s *sim) readyLabels() []string {
	var out []string
	for _, n := range s.ready {
		out = append(out, s.nodes[n].def.label)
	}
	return out
}

// start registers the top-level program without executing anything beyond
// the root body (which instantiates the top-level tasks).
func (s *sim) start(tasks []*simTask) {
	s.reference(tasks)
	root := s.eng.NewNode(nil, "root", nil)
	s.eng.Register(root, nil)
	rootSim := &simNode{def: &simTask{label: "root", children: tasks}, node: root}
	s.nodes[root] = rootSim
	s.execute(rootSim)
}

// finish drains the remaining ready tasks in FIFO order and runs the final
// checks.
func (s *sim) finish() {
	for len(s.ready) > 0 {
		n := s.ready[0]
		s.ready = s.ready[1:]
		s.execute(s.nodes[n])
	}
	if s.done != s.total {
		s.t.Fatalf("deadlock or lost tasks: completed %d of %d", s.done, s.total)
	}
}
