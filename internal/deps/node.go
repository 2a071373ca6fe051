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
// dependency structure per (data object, stripe of its index space) — each
// shard key gets its own lock, interval maps, and cascade queue, so depend
// clauses over disjoint data or disjoint ranges of one object never
// contend; only the per-node readiness countdown crosses shards, and it is
// a bare atomic. In both, all cascade effects (satisfaction grants, domain
// drain, hand-over release) run through an explicit event queue so that no
// interval map is structurally modified while being iterated, and every
// event provably stays within the shard that produced it.
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
// Locking: the contents of the per-shard interval maps are guarded by the
// lock covering that shard key (the engine mutex for GlobalEngine, the
// shard's mutex for ShardedEngine). The table that finds them (maps) is
// read without a lock and written under mapsMu, because under the sharded
// engine a child's registration in one shard can add an entry to the
// parent's table concurrently with a cascade looking up another shard's.
// unsat and notified are atomic: they are the only cross-shard state,
// credited by grants from any shard. accesses, registered, and completed
// are single-writer fields — mutated only by the registering / completing
// goroutine, with happens-before to readers established through the unsat
// countdown and the runtime's own synchronization.
type Node struct {
	parent *Node
	label  string

	// User is an opaque back-reference for the runtime layer (the core
	// package stores its *Task here). The engine never touches it.
	User any

	accesses []*access
	// datas caches the distinct shard keys of accesses in ascending order —
	// the canonical shard visiting order, computed once at registration so
	// the completion-side calls (BodyDone, Complete) pay no sort or
	// allocation. Single-writer like accesses. It aliases data0 unless the
	// clause touches more than inlineDatas shards, so the common clauses
	// stay off the heap.
	datas []shardKey
	data0 [inlineDatas]shardKey
	// maps finds, per shard key, this node's own fragments (for inbound
	// linking by children and for the release directive) and the dependency
	// domain of its children. Lookups take no lock; see mapTab.
	maps   atomic.Pointer[mapTab]
	mapsMu sync.Mutex

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

// inlineDatas is how many distinct shards of a depend clause a node records
// inline (Node.data0): a clause over two objects that straddles a stripe
// boundary on each still fits. Six also make the Node 192 bytes, three whole
// cache lines in its allocation size class, so pooled nodes that sit side by
// side — one being initialised by the submitter while a worker completes its
// neighbour — never share a line.
const inlineDatas = 6

// shardKey names one dependency shard: a stripe of one data object's index
// space (DataID in the high half, stripe index in the low half, so ascending
// keys order by data object first). Every per-data structure of the engine
// is keyed by it. The global engine, and a sharded engine's unstriped
// objects, only ever use stripe 0.
type shardKey uint64

func makeKey(data DataID, stripe int) shardKey { return shardKey(data)<<32 | shardKey(uint32(stripe)) }

func (k shardKey) data() DataID { return DataID(k >> 32) }
func (k shardKey) stripe() int  { return int(uint32(k)) }

// nodeMaps is one entry of a node's map table.
type nodeMaps struct {
	key shardKey
	// am indexes the node's own fragments inside the shard by interval.
	am *regions.Map[*fragment]
	// dm is the shard's part of the dependency domain of the node's children.
	dm *regions.Map[cellState]
}

// mapTab is one published version of a node's map table: ents[:n] sorted by
// key. A reader loads Node.maps, then n, and searches that prefix — no lock,
// so cascades in different shards do not share a cache line they write.
// Writers hold Node.mapsMu and never disturb what a reader may be looking
// at: a key above every present one is written into the spare capacity and
// published by the store to n; any other insertion, or a full table,
// publishes a fresh copy. The am/dm fields of an entry are set under mapsMu
// (a copy must not miss one) and read under the entry's shard lock, which
// every writer of that entry also holds.
type mapTab struct {
	n    atomic.Int32
	ents []nodeMaps
}

// searchMaps returns the position of key in the sorted ents, or where it
// would be inserted. Tables are a handful of entries (one or two per data
// object of the clause, S per object at a root): a scan, not a bisection.
func searchMaps(ents []nodeMaps, key shardKey) (int, bool) {
	for i := range ents {
		if ents[i].key >= key {
			return i, ents[i].key == key
		}
	}
	return len(ents), false
}

// mapsFor returns the node's table entry for key, or nil. The caller holds
// the lock covering key.
func (n *Node) mapsFor(key shardKey) *nodeMaps {
	t := n.maps.Load()
	if t == nil {
		return nil
	}
	ents := t.ents[:t.n.Load()]
	if i, ok := searchMaps(ents, key); ok {
		return &ents[i]
	}
	return nil
}

// mapsEnsure returns the entry for key in the current table, inserting an
// empty one if there is none. The caller holds mapsMu.
func (n *Node) mapsEnsure(key shardKey) *nodeMaps {
	t := n.maps.Load()
	var ents []nodeMaps
	if t != nil {
		ents = t.ents[:t.n.Load()]
	}
	at, ok := searchMaps(ents, key)
	if ok {
		return &ents[at]
	}
	cnt := len(ents)
	if t != nil && at == cnt && cnt < len(t.ents) {
		t.ents[cnt] = nodeMaps{key: key}
		t.n.Store(int32(cnt + 1))
		return &t.ents[cnt]
	}
	size := 2
	if t != nil {
		size = len(t.ents)
	}
	if cnt == size {
		size *= 2
	}
	nt := &mapTab{ents: make([]nodeMaps, size)}
	copy(nt.ents, ents[:at])
	nt.ents[at] = nodeMaps{key: key}
	copy(nt.ents[at+1:], ents[at:])
	nt.n.Store(int32(cnt + 1))
	n.maps.Store(nt)
	return &nt.ents[at]
}

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
		return n.datas[0].data(), true
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

// domainEnsure returns the node's domain map for key, creating it on the
// first child registration in that shard. The caller holds the lock covering
// key, as does every other reader and writer of the entry's dm.
func (n *Node) domainEnsure(key shardKey, mem *depMem) *regions.Map[cellState] {
	if e := n.mapsFor(key); e != nil && e.dm != nil {
		return e.dm
	}
	n.mapsMu.Lock()
	defer n.mapsMu.Unlock()
	e := n.mapsEnsure(key)
	if mem != nil {
		e.dm = mem.dmaps.Get()
	} else {
		e.dm = regions.NewMap[cellState](cloneCell)
	}
	return e.dm
}

// domainFor returns the node's domain map for key, or nil if no child has
// registered an access in that shard.
func (n *Node) domainFor(key shardKey) *regions.Map[cellState] {
	if e := n.mapsFor(key); e != nil {
		return e.dm
	}
	return nil
}

// accessMapEnsure is domainEnsure for the node's own access map.
func (n *Node) accessMapEnsure(key shardKey, mem *depMem) *regions.Map[*fragment] {
	if e := n.mapsFor(key); e != nil && e.am != nil {
		return e.am
	}
	n.mapsMu.Lock()
	defer n.mapsMu.Unlock()
	e := n.mapsEnsure(key)
	if mem != nil {
		e.am = mem.amaps.Get()
	} else {
		e.am = regions.NewMap[*fragment](nil)
	}
	return e.am
}

// accessMapFor returns the node's own access map for key, or nil.
func (n *Node) accessMapFor(key shardKey) *regions.Map[*fragment] {
	if e := n.mapsFor(key); e != nil {
		return e.am
	}
	return nil
}
