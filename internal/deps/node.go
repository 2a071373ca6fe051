// Package deps implements the hierarchical dependency-domain engine that is
// the primary contribution of the paper: task dependencies across nesting
// levels, weak dependency types (§VI), fine-grained release of dependencies
// on weakwait and on the release directive (§V), and dependencies over
// partially overlapping array sections (§VII).
//
// Every task owns a *domain* in which the dependencies of its direct
// children are computed. Each depend entry of a child becomes an access,
// fragmented against the domain's per-data interval map. Accesses whose
// intervals hit a fresh part of the domain link *inbound* through the
// parent's own access over the same interval, which is how satisfaction
// propagates from outer domains into inner ones. Fine-grained release (the
// weakwait hand-over) propagates the other way: when a task's body ends,
// access pieces still covered by live children are handed over and release
// exactly when the covering child accesses release. The combination merges
// every domain into its parent's — observably equivalent to computing all
// dependencies in a single domain, which is the paper's headline property.
//
// Two Engine implementations provide these semantics. GlobalEngine
// serializes everything behind one mutex. ShardedEngine partitions every
// dependency structure per data object — each DataID gets its own lock,
// interval maps, and cascade queue, so depend clauses over disjoint data
// never contend; only the per-node readiness countdown crosses shards, and
// it is a bare atomic. In both, all cascade effects (satisfaction grants,
// domain drain, hand-over release) run through an explicit event queue so
// that no interval map is structurally modified while being iterated, and
// every event provably stays within the data object that produced it.
package deps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// DataID identifies a registered data object (an array the depend clauses
// refer to). Intervals are element indices within that object.
type DataID uint32

// AccessType is the dependency type of a depend-clause entry.
type AccessType uint8

const (
	// In corresponds to depend(in: ...): the task reads the region.
	In AccessType = iota
	// Out corresponds to depend(out: ...): the task overwrites the region.
	Out
	// InOut corresponds to depend(inout: ...): the task reads and writes.
	InOut
	// Red is a task-reduction access (the paper's future work, §X, brought
	// into the nesting/weak-dependency framework): reduction accesses over
	// the same region commute — they carry no mutual ordering — but order
	// after prior writers and readers, and everything after the group
	// orders after every reduction in it. The task must combine its
	// contribution atomically or via privatization; the engine only
	// guarantees the group's isolation.
	Red
)

// Reads reports whether the access type implies reading the data.
func (t AccessType) Reads() bool { return t == In || t == InOut || t == Red }

// Writes reports whether the access type implies writing the data.
func (t AccessType) Writes() bool { return t == Out || t == InOut || t == Red }

// String returns the OpenMP depend-clause spelling of the access type.
func (t AccessType) String() string {
	switch t {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	case Red:
		return "reduction"
	}
	return fmt.Sprintf("AccessType(%d)", uint8(t))
}

// Spec is one depend-clause entry: an access of the given type — weak or
// strong — over a set of disjoint intervals of one data object. Weak specs
// are the weakin/weakout/weakinout types of §VI: they never defer the task
// itself; they only link the task's inner dependency domain to the outer
// one so that subtasks can inherit and release the dependencies.
type Spec struct {
	// Data is the accessed data object.
	Data DataID
	// Type is the access type (In, Out, InOut, or Red).
	Type AccessType
	// Weak marks the weakin/weakout/weakinout variants (§VI).
	Weak bool
	// Ivs are the accessed element intervals (disjoint).
	Ivs []regions.Interval
}

// String renders the spec as a depend-clause-style entry (diagnostics).
func (s Spec) String() string {
	w := ""
	if s.Weak {
		w = "weak"
	}
	return fmt.Sprintf("%s%s:data%d%v", w, s.Type, s.Data, s.Ivs)
}

// Node is the engine's view of a task. A Node is created with NewNode,
// participates in its parent's domain through Register, and owns a domain
// for its own children. The zero value is not usable.
//
// Locking: the contents of the per-data interval maps are guarded by the
// lock covering that data (the engine mutex for GlobalEngine, the data's
// shard mutex for ShardedEngine). The accessMap/domain Go maps themselves
// are guarded by mapsMu, because under the sharded engine a child's
// registration on one data can grow the parent's domain map concurrently
// with a cascade reading another data's entry. unsat and notified are
// atomic: they are the only cross-shard state, credited by grants from any
// shard. accesses, registered, and completed are single-writer fields —
// mutated only by the registering / completing goroutine, with
// happens-before to readers established through the unsat countdown and
// the runtime's own synchronization.
type Node struct {
	parent *Node
	label  string

	// User is an opaque back-reference for the runtime layer (the core
	// package stores its *Task here). The engine never touches it.
	User any

	accesses []*access
	// datas caches the distinct DataIDs of accesses in ascending order —
	// the canonical shard visiting order, computed once at registration so
	// the completion-side calls (BodyDone, Complete) pay no sort or
	// allocation. Single-writer like accesses. It aliases data0 unless the
	// clause names more than inlineDatas objects, so the common clauses
	// stay off the heap.
	datas  []DataID
	data0  [inlineDatas]DataID
	mapsMu sync.RWMutex
	// accessMap indexes this node's own fragments by data and interval, for
	// inbound linking by children and for the release directive.
	accessMap map[DataID]*regions.Map[*fragment]
	// domain is the dependency domain of this node's children.
	domain map[DataID]*regions.Map[cellState]

	// unsat is the total element length of strong access pieces whose
	// relevant satisfaction is still pending, plus a +1 registration hold
	// while Register runs. The node is ready when it reaches zero.
	unsat atomic.Int64
	// notified elects the single ready transition (CAS) once unsat drains.
	notified atomic.Bool
	// readyData is the DataID whose grant completed the node's readiness
	// (-1 when the node was ready at registration). Written once by the
	// goroutine that wins the notified election, before the node is handed
	// out on a ready list, so readers downstream of that hand-off need no
	// further synchronization.
	readyData int64

	registered bool
	completed  bool

	// gen is the node's generation counter (pooled engines only): bumped
	// when the node is retired to the pool, so NodeHandles captured during
	// this life detect stale access after recycling. Always zero under the
	// reference (allocate-always) memory mode.
	gen mempool.Gen

	// pins counts the reasons the node must stay alive (pooled engines
	// only; see the ownership rules in docs/ARCHITECTURE.md):
	//
	//   +1 completion hold — placed at creation, released at the end of
	//      Complete;
	//   +1 per fragment not yet fully released;
	//   +1 per child node not yet recycled;
	//   +1 per queued evDomainDec event targeting this node's domain.
	//
	// The transition to zero — necessarily after completion, with every
	// own access released, every child drained, and no cascade event in
	// flight — is the single point at which the engine may recycle the
	// node; the atomic decrement elects exactly one recycler and carries
	// the happens-before edge from every prior mutation site (each of
	// which released a pin after its writes).
	pins atomic.Int64
}

// inlineDatas is how many distinct data objects of a depend clause a node
// records inline (Node.data0).
const inlineDatas = 4

// newNode constructs a node with no readiness hint yet.
func newNode(parent *Node, label string, user any) *Node {
	n := &Node{}
	n.init(parent, label, user)
	return n
}

// init prepares a fresh or pool-recycled node for a new life. All other
// fields are zero: either the struct is new, or resetForPool restored them.
func (n *Node) init(parent *Node, label string, user any) {
	n.parent, n.label, n.User = parent, label, user
	n.readyData = -1
	n.pins.Store(1) // completion hold
}

// resetForPool retires the node's identity before it returns to the pool.
// The interval maps and slice backing arrays are kept (emptied) so the next
// life allocates nothing; the generation bump invalidates every NodeHandle
// captured during this life. Only the engine's recycler (the goroutine that
// decremented pins to zero) may call this.
func (n *Node) resetForPool() {
	n.gen.Retire()
	n.parent, n.label, n.User = nil, "", nil
	clear(n.accesses)
	n.accesses = n.accesses[:0]
	n.datas = nil // may alias data0; multi-object slices are dropped
	n.unsat.Store(0)
	n.notified.Store(false)
	n.readyData = 0
	n.registered, n.completed = false, false
}

// NodeHandle is a generation-checked reference to a Node for holders that
// outlive the engine's ownership of it — observers, verification tooling,
// diagnostics. Under a pooled engine the node is recycled once it drains,
// and a handle captured earlier then reports Valid() == false instead of
// silently reading the next task's state; the label is captured at handle
// time so diagnostics survive recycling. Under a reference engine handles
// stay valid forever (nodes are never retired).
type NodeHandle struct {
	h     mempool.Handle[Node]
	label string
}

// Handle captures a generation-checked reference to the node.
func (n *Node) Handle() NodeHandle {
	return NodeHandle{h: mempool.MakeHandle(n, nodeGen), label: n.label}
}

func nodeGen(n *Node) *mempool.Gen { return &n.gen }

// Valid reports whether the node has not been recycled since capture.
func (h NodeHandle) Valid() bool { return h.h.Valid() }

// Node returns the node, or ok=false if it has been recycled since the
// handle was captured (use-after-recycle and ABA reuse both fail the
// generation check).
func (h NodeHandle) Node() (*Node, bool) { return h.h.Get() }

// Label returns the label captured at handle time; unlike Node(), it stays
// readable after recycling.
func (h NodeHandle) Label() string { return h.label }

// ReadyData returns the data object whose satisfaction grant made this node
// ready — the release-path locality hint: the worker whose completion
// cascade delivered that grant has the producing data warm in cache.
// ok=false when the node was ready at registration (no pending grant).
func (n *Node) ReadyData() (DataID, bool) {
	if n.readyData < 0 {
		return 0, false
	}
	return DataID(n.readyData), true
}

// PrimaryData returns the first (lowest-id) data object of the node's
// depend clause, ok=false for a node with no dependencies.
func (n *Node) PrimaryData() (DataID, bool) {
	if len(n.datas) > 0 {
		return n.datas[0], true
	}
	if len(n.accesses) > 0 {
		return n.accesses[0].spec.Data, true
	}
	return 0, false
}

// Label returns the diagnostic label given at creation.
func (n *Node) Label() string { return n.label }

// Parent returns the parent node (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

func (n *Node) domainEnsure(data DataID, mem *depMem) *regions.Map[cellState] {
	n.mapsMu.Lock()
	defer n.mapsMu.Unlock()
	if n.domain == nil {
		n.domain = make(map[DataID]*regions.Map[cellState])
	}
	dm := n.domain[data]
	if dm == nil {
		if mem != nil {
			dm = mem.dmaps.Get()
		} else {
			dm = regions.NewMap[cellState](cloneCell)
		}
		n.domain[data] = dm
	}
	return dm
}

// domainFor returns the node's domain map for data, or nil if no child has
// registered an access over it.
func (n *Node) domainFor(data DataID) *regions.Map[cellState] {
	n.mapsMu.RLock()
	defer n.mapsMu.RUnlock()
	return n.domain[data]
}

func (n *Node) accessMapEnsure(data DataID, mem *depMem) *regions.Map[*fragment] {
	n.mapsMu.Lock()
	defer n.mapsMu.Unlock()
	if n.accessMap == nil {
		n.accessMap = make(map[DataID]*regions.Map[*fragment])
	}
	am := n.accessMap[data]
	if am == nil {
		if mem != nil {
			am = mem.amaps.Get()
		} else {
			am = regions.NewMap[*fragment](nil)
		}
		n.accessMap[data] = am
	}
	return am
}

// accessMapFor returns the node's own access map for data, or nil.
func (n *Node) accessMapFor(data DataID) *regions.Map[*fragment] {
	n.mapsMu.RLock()
	defer n.mapsMu.RUnlock()
	return n.accessMap[data]
}
