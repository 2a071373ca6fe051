package sched

// Locality topology for the stealing pool: the per-worker deque shards are
// arranged into a two-level tree (domain → core group → worker), and the
// steal path walks it nearest-neighbour-first — exhaust the sibling group,
// then the rest of the domain, then cross domains — instead of treating
// every shard as an equally distant flat peer. On a real machine the levels
// map to SMT siblings / shared-LLC cores / sockets, where a near steal hits
// warm cache and a far one pays the interconnect; on a flat CI host the
// tree is synthetic, but the steal-distance distribution it induces is
// still measurable (depbench -mode locality) and the nearest-first order
// still shortens the average miss scan.
//
// The flat victim order (the pre-topology behaviour) stays selectable via
// TopologyFlat and is kept as the differential reference, the same pattern
// as every sharded/reference pair in this repo: both orders must uphold
// identical admission invariants, only placement and steal distance differ.

// Topology configures the locality tree of the stealing pool's worker shards.
// The zero value derives a synthetic tree from the worker count (groups of
// defaultGroupSize, up to defaultGroupsPerDomain groups per domain), which
// is the default for the stealing pool.
type Topology struct {
	// Flat disables nearest-first victim selection: steal candidates are
	// scanned in a single randomized flat pass over all shards, the
	// pre-topology order. The tree is still *resolved* (GroupSize/Domains
	// or their defaults) so steal-distance accounting stays comparable —
	// a flat pool reports how far its steals travelled over the same tree
	// shape, which is exactly the reference column of the locality table.
	Flat bool
	// GroupSize is the number of sibling workers per core group (the leaf
	// level of the tree). 0 picks defaultGroupSize, clamped to the worker
	// count.
	GroupSize int
	// Domains is the number of top-level domains the core groups are split
	// across (contiguously, as evenly as possible). 0 derives it from the
	// group count (defaultGroupsPerDomain groups per domain); values larger
	// than the group count are clamped.
	Domains int
}

// TopologyFlat selects the flat victim order — the differential reference
// against the topology tree.
var TopologyFlat = Topology{Flat: true}

// Synthetic tree defaults: groups of four workers, four groups per domain,
// i.e. one domain up to w=16, two up to w=32, and so on.
const (
	defaultGroupSize       = 4
	defaultGroupsPerDomain = 4
)

// Steal-distance levels, the index space of the per-level steal counters
// (PoolStats.StealLevels) and of the nearest-first walk order.
const (
	// LevelSibling counts steals resolved inside the thief's own core
	// group.
	LevelSibling = iota
	// LevelDomain counts steals that left the thief's group but stayed
	// inside its domain.
	LevelDomain
	// LevelRemote counts steals that crossed domains (the top of the
	// tree).
	LevelRemote
	// NumLevels is the number of steal-distance levels.
	NumLevels
)

// topoTree is a resolved Topology: per-worker group/domain ids and, for
// each worker, its steal candidates sorted nearest-first with the level
// boundaries precomputed, so the steal path indexes instead of classifying.
type topoTree struct {
	flat     bool
	groupOf  []int32
	domainOf []int32
	// victims[w] lists every worker but w, nearest-first;
	// victims[w][:levelEnd[w][l]] are the candidates within level l.
	victims  [][]int32
	levelEnd [][NumLevels]int32
}

// resolveTopology expands a Topology config over a worker count.
func resolveTopology(workers int, t Topology) topoTree {
	g := t.GroupSize
	if g <= 0 {
		g = defaultGroupSize
	}
	if g > workers {
		g = workers
	}
	numGroups := (workers + g - 1) / g
	d := t.Domains
	if d <= 0 {
		d = (numGroups + defaultGroupsPerDomain - 1) / defaultGroupsPerDomain
	}
	if d > numGroups {
		d = numGroups
	}
	tr := topoTree{
		flat:     t.Flat,
		groupOf:  make([]int32, workers),
		domainOf: make([]int32, workers),
		victims:  make([][]int32, workers),
		levelEnd: make([][NumLevels]int32, workers),
	}
	for w := 0; w < workers; w++ {
		grp := w / g
		tr.groupOf[w] = int32(grp)
		tr.domainOf[w] = int32(grp * d / numGroups)
	}
	for w := 0; w < workers; w++ {
		order := make([]int32, 0, workers-1)
		for lvl := 0; lvl < NumLevels; lvl++ {
			for v := 0; v < workers; v++ {
				if v != w && tr.level(w, v) == lvl {
					order = append(order, int32(v))
				}
			}
			tr.levelEnd[w][lvl] = int32(len(order))
		}
		tr.victims[w] = order
	}
	return tr
}

// level returns the steal-distance level separating workers w and v.
func (t *topoTree) level(w, v int) int {
	switch {
	case t.groupOf[w] == t.groupOf[v]:
		return LevelSibling
	case t.domainOf[w] == t.domainOf[v]:
		return LevelDomain
	default:
		return LevelRemote
	}
}

// AffinityQueue is the optional Queue extension implemented by the stealing
// pool: SubmitBatchAffinity admits a batch like SubmitBatch but consults a
// per-item placement hint — the worker whose shard group last touched the
// item's ready data (-1 for none). Hinted items whose group differs from
// the submitter's are routed to the hinted worker's shard inbox, so the
// group that has the data warm finds them without a cross-group steal;
// everything else follows the SubmitBatch placement. Pools with a flat
// topology ignore the hints (the reference order has no groups to route
// between).
type AffinityQueue[T any] interface {
	Queue[T]
	SubmitBatchAffinity(items []T, hints []int32, from int)
}

// splitmix64 expands a small seed into a full-entropy PRNG state (the
// standard SplitMix64 finalizer); used to seed the per-shard xorshift
// states at pool construction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randN draws from the shard's private xorshift64 state: the victim-start
// randomization of the steal path. Owner-only, like the deque bottom — the
// caller holds this shard's worker token (ownership transfers through the
// token list, which carries the happens-before edge), so no shared PRNG
// state is touched on the miss path and steal schedules are reproducible
// given the same interleaving (the fixed construction-time seeds).
func (sh *poolShard[T]) randN(n int) int {
	x := sh.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sh.rng = x
	return int(x % uint64(n))
}
