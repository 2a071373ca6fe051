package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/mempool"
)

// Stealing is the work-stealing ready pool: one deque shard per worker, LIFO
// self-pop (depth-first, cache-warm), FIFO stealing of the oldest — the Cilk
// discipline — plus a per-worker creator lane, a lock-free token free-list,
// and an idle protocol in place of a pool-wide mutex. Submission onto the
// own shard and self-pop are lock-free, stealing is one CAS on the victim,
// and token accounting is the lock-free free list, so Submit, SubmitBatch,
// Finish, and Yield of different workers do not serialize on any common
// lock.
//
// Per-shard state:
//
//   - deque: a Chase-Lev deque owned by the worker. Pushes with an in-range
//     from and self-pops are the owner's lock-free fast path; thieves take
//     the oldest item with one CAS.
//   - inbox: a small mutex-guarded FIFO for submissions from goroutines
//     that hold no worker token (from out of range). External submissions
//     are routed round-robin across inboxes so they cannot pile onto one
//     shard.
//   - lane: the creator lane (see SubmitCreator) — a mutex-guarded stack of
//     FIFO batches for items that must start in program order rather than
//     newest-first.
//
// The from argument of Submit, SubmitBatch, Announce and SubmitCreator is
// the submitting worker: an in-range from asserts that the caller is the
// goroutine currently holding that worker's token, and a caller holding no
// token passes -1 (any out-of-range value). The single-owner deque and lane
// fast paths rely on it; the runtime satisfies it by construction, since a
// task submits children only while running on its worker.
//
// Admission invariants (checked by the differential tests in this package
// against a central single-lock queue):
//
//   - token conservation: every worker token is, at all times, held by
//     exactly one runner, parked in the free list, or in flight to exactly
//     one waiter;
//   - no lost wakeups: a queued item and a free token cannot coexist at
//     quiescence;
//   - waiter priority: a release point (Finish, Yield, token retirement)
//     hands the token to a blocked Acquire — a resuming taskwait, which
//     holds a live stack — before spawning fresh queued work;
//   - Idle() is exact at quiescence.
//
// The lost-wakeup window that a central queue closes with its mutex — a
// submitter observes no free token and queues, while a retiring worker
// concurrently observes no queued work and parks its token — is closed here
// with a Dekker-style publish-then-recheck protocol over seq-cst atomics:
// the submitter publishes the item (the shard deque's bottom index, or the
// inbox count) and then re-checks the token list (kick); the retirer
// publishes the token (free list) and then re-checks every shard and the
// waiter count (releaseToken). In any sequentially consistent interleaving
// at least one side observes the other's publication and performs (or
// hands off responsibility for) the match; a reclaim that finds the
// counterpart already consumed returns the token and re-checks, so
// responsibility is never dropped.
type Stealing[T any] struct {
	shards  []poolShard[T]
	tokens  *tokenList
	rr      atomic.Uint32
	spawn   func(item T, worker int)
	workers int
	// boxes is the shared free-list shard for deque boxes: each worker's
	// poolShard holds an owner lane over it, a pushed box travels with its
	// item (a steal carries it to the thief), and the consumer recycles it
	// into its own lane — the deque path allocates nothing in steady state.
	boxes *mempool.Global[T]

	wmu      sync.Mutex // guards waiters
	waiters  []chan int // blocked Acquire calls (taskwait resumes)
	nwaiters atomic.Int64

	spawns atomic.Int64

	// soloQ replaces shard 0's deque when workers == 1: with no other
	// shard to steal from, the queue is only ever touched by the current
	// holder of the single token (ownership transfers through the token
	// list, which carries the happens-before edge), so plain slice
	// operations suffice and only the length is published for the idle
	// protocol's emptiness checks. This keeps the degenerate single-worker
	// pool as cheap as a single-lock queue.
	soloQ   []T
	soloLen atomic.Int64
}

// poolShard pads to a whole number of cache lines so one worker's push/pop
// traffic does not false-share with its neighbours' (the field sizes are
// T-independent — slices are headers — so the pad is a constant; a test
// asserts the 64-byte multiple).
type poolShard[T any] struct {
	deque    clDeque[T]      // 24 bytes
	imu      sync.Mutex      // 8
	inbox    []T             // 24
	ilen     atomic.Int64    // 8
	steals   atomic.Int64    // 8; items this worker took from other shards
	rng      uint64          // 8; owner-only victim-start PRNG state
	newBatch bool            // 8 with padding; owner-only: an item was taken since the last lane push
	boxLane  mempool.Lane[T] // 48; owner-only box free list
	lane     []T             // 24; creator-lane storage (guarded by imu)
	segs     []laneSeg       // 24; the lane's batches, oldest first (guarded by imu)
	llen     atomic.Int64    // 8; items in the lane
	_        [64]byte        // 192 -> 256
}

// laneSeg is one batch of the creator lane: the items one task body pushed,
// in submission order, of which lane[head:end) are still queued.
type laneSeg struct{ head, end int }

// PoolStats are diagnostic counters of a Stealing pool.
type PoolStats struct {
	// Spawns is the number of goroutines started (token matched to an item
	// outside a Finish chain).
	Spawns int64
	// Steals counts items a worker took from another worker's shard.
	Steals int64
}

// NewStealing creates a work-stealing pool with the given number of worker
// tokens.
func NewStealing[T any](workers int, spawn func(item T, worker int)) *Stealing[T] {
	if workers < 1 {
		panic("sched: need at least one worker")
	}
	p := &Stealing[T]{
		shards:  make([]poolShard[T], workers),
		tokens:  newTokenList(workers),
		spawn:   spawn,
		workers: workers,
		boxes:   mempool.NewGlobal(func() *T { return new(T) }),
	}
	for i := range p.shards {
		p.shards[i].deque.init()
		p.shards[i].boxLane.Init(p.boxes)
		// Fixed seeds: the per-shard victim-start draws are then a pure
		// function of each worker's pop sequence, so a replayed schedule
		// (randtest -seed) replays the steal schedule too.
		p.shards[i].rng = splitmix64(uint64(i) + 1)
	}
	return p
}

// Workers returns the number of worker tokens.
func (p *Stealing[T]) Workers() int { return p.workers }

// Stats returns the pool's diagnostic counters.
func (p *Stealing[T]) Stats() PoolStats {
	st := PoolStats{Spawns: p.spawns.Load()}
	for i := range p.shards {
		st.Steals += p.shards[i].steals.Load()
	}
	return st
}

func (p *Stealing[T]) spawnGo(item T, w int) {
	p.spawns.Add(1)
	go p.spawn(item, w)
}

// pushItem queues an item. An in-range from pushes onto that worker's own
// deque — the caller holds that worker's token, so this is the owner-side
// lock-free path. Out-of-range submissions go to a round-robin shard's
// inbox (they come from goroutines holding no token, which may race each
// other and the shard owner).
func (p *Stealing[T]) pushItem(item T, from int) {
	if from >= 0 && from < p.workers {
		if p.workers == 1 {
			p.soloQ = append(p.soloQ, item)
			p.soloLen.Store(int64(len(p.soloQ)))
			return
		}
		sh := &p.shards[from]
		box := sh.boxLane.Get() // owner-only: the caller holds from's token
		*box = item
		sh.deque.PushBottom(box)
		return
	}
	p.inboxPush(int(p.rr.Add(1))%p.workers, item)
}

// inboxPush appends an item to shard v's inbox. Inboxes are mutex-guarded,
// so any goroutine may target any shard — this is the cross-shard placement
// primitive behind external submissions and announcements.
func (p *Stealing[T]) inboxPush(v int, item T) {
	sh := &p.shards[v]
	sh.imu.Lock()
	sh.inbox = append(sh.inbox, item)
	sh.ilen.Add(1)
	sh.imu.Unlock()
}

// Submit makes an item runnable. With a free token it starts immediately on
// a new goroutine; otherwise it queues on the submitting worker's shard (an
// in-range from: the caller holds that worker's token, and the push is the
// owner's lock-free path) or, for a caller holding no token (from -1), in a
// round-robin shard's inbox. Safe for concurrent use under that rule.
func (p *Stealing[T]) Submit(item T, from int) {
	if w, ok := p.tokens.tryPop(); ok {
		p.spawnGo(item, w)
		return
	}
	p.pushItem(item, from)
	p.kick()
}

// SubmitBatch makes every item runnable in one admission: tokens are
// matched first, the rest queue on the submitting worker's shard (or are
// scattered round-robin across inboxes for external batches), and one kick
// closes the lost-wakeup window for the whole batch. A dependency release
// that readies many successors hands them over in one call. from follows
// Submit's ownership rule.
func (p *Stealing[T]) SubmitBatch(items []T, from int) {
	if len(items) == 0 {
		return
	}
	i := 0
	for ; i < len(items); i++ {
		w, ok := p.tokens.tryPop()
		if !ok {
			break
		}
		p.spawnGo(items[i], w)
	}
	rest := items[i:]
	if len(rest) == 0 {
		return
	}
	for _, it := range rest {
		p.pushItem(it, from)
	}
	p.kick()
}

// Announce publishes n copies of one item: free tokens are matched first,
// and the remaining copies spread across the *other* workers' shard
// inboxes — never the announcer's own deque or inbox (the announcer is
// already running the body the copies invite helpers into, so a copy there
// would force every other worker through a steal to find one). With a
// known announcer the spread starts at its right-hand neighbour and walks
// from+1, from+2, … (mod workers), skipping the announcer; an announcement
// without a worker identity (out-of-range from) scatters round-robin. One
// kick closes the lost-wakeup window for the whole announcement. Each copy
// is an invitation, not new work (worksharing regions use this to recruit
// the fleet into a chunk-distributed body), so the same item may
// legitimately run n times. from follows Submit's ownership rule.
func (p *Stealing[T]) Announce(item T, n, from int) {
	if n <= 0 {
		return
	}
	for ; n > 0; n-- {
		w, ok := p.tokens.tryPop()
		if !ok {
			break
		}
		p.spawnGo(item, w)
	}
	if n == 0 {
		return
	}
	if from >= 0 && from < p.workers && p.workers > 1 {
		for i := 0; i < n; i++ {
			p.inboxPush((from+1+i%(p.workers-1))%p.workers, item)
		}
	} else {
		for i := 0; i < n; i++ {
			p.pushItem(item, -1)
		}
	}
	p.kick()
}

// takeInbox pops the oldest inbox item of sh, if any.
func (p *Stealing[T]) takeInbox(sh *poolShard[T]) (item T, ok bool) {
	if sh.ilen.Load() == 0 {
		return item, false
	}
	sh.imu.Lock()
	if len(sh.inbox) == 0 {
		sh.imu.Unlock()
		return item, false
	}
	item = sh.inbox[0]
	var zero T
	sh.inbox[0] = zero
	sh.inbox = sh.inbox[1:]
	sh.ilen.Add(-1)
	sh.imu.Unlock()
	return item, true
}

// pushLane appends an item to the owner's creator lane: onto the newest
// batch while the same body keeps submitting, onto a fresh batch once the
// owner has taken another item in between (newBatch). Owner-only, like a
// deque push; the mutex is for the thieves.
func (sh *poolShard[T]) pushLane(item T) {
	sh.imu.Lock()
	if len(sh.lane) == cap(sh.lane) && len(sh.segs) > 0 {
		// About to grow. A lane that is fed and drained for a long time never
		// empties, so takeLane never gets to reset it: when most of the
		// storage is the consumed front of the oldest batch, slide the live
		// part down instead.
		if h := sh.segs[0].head; h > len(sh.lane)/2 {
			n := copy(sh.lane, sh.lane[h:])
			clear(sh.lane[n:])
			sh.lane = sh.lane[:n]
			for i := range sh.segs {
				sh.segs[i].head -= h
				sh.segs[i].end -= h
			}
		}
	}
	if sh.newBatch || len(sh.segs) == 0 {
		sh.segs = append(sh.segs, laneSeg{len(sh.lane), len(sh.lane)})
		sh.newBatch = false
	}
	sh.lane = append(sh.lane, item)
	sh.segs[len(sh.segs)-1].end++
	sh.llen.Add(1)
	sh.imu.Unlock()
}

// takeLane pops the front of the lane's newest batch (the owner: depth-first
// program order — a creator's own sub-creators run before its later
// siblings) or of its oldest batch (a thief: the outermost pending creator,
// i.e. the largest subtree nearest the front of the program).
func (sh *poolShard[T]) takeLane(oldest bool) (item T, ok bool) {
	if sh.llen.Load() == 0 {
		return item, false
	}
	if oldest {
		// Failpoint: widen the window between the lane check and the lock,
		// racing a thief's take against the owner's and rival thieves'.
		chaos.Maybe(chaos.SchedCreatorLane)
	}
	sh.imu.Lock()
	defer sh.imu.Unlock()
	if len(sh.segs) == 0 {
		return item, false
	}
	i := len(sh.segs) - 1
	if oldest {
		i = 0
	}
	seg := &sh.segs[i]
	var zero T
	item, sh.lane[seg.head] = sh.lane[seg.head], zero
	seg.head++
	if seg.head == seg.end {
		// Batch exhausted: drop it, and give back the storage above the
		// newest remaining batch (all of it once the lane is empty).
		sh.segs = append(sh.segs[:i], sh.segs[i+1:]...)
		top := 0
		if n := len(sh.segs); n > 0 {
			top = sh.segs[n-1].end
		}
		sh.lane = sh.lane[:top]
	}
	sh.llen.Add(-1)
	return item, true
}

// stealBatchMax bounds the steal-half multi-pop: one miss-driven visit to
// a victim takes at most this many items (the first for the thief, the
// rest onto its own deque).
const stealBatchMax = 8

// consumeBox copies the boxed item out and recycles the box into worker
// w's lane (the caller holds w's token, making it the lane's owner — this
// is how boxes that crossed shards via steals find their way back into
// circulation).
func (p *Stealing[T]) consumeBox(w int, box *T) T {
	item := *box
	var zero T
	*box = zero
	p.shards[w].boxLane.Put(box)
	return item
}

// popFor removes the next item for the holder of token w: own deque bottom
// (the soloQ top at one worker), own creator lane (newest batch, oldest
// item), own inbox, then the other shards — creator lane (oldest batch),
// deque top, then inbox (stealFrom). The victims are the other workers in
// ascending order, scanned once from a randomized start so concurrent
// thieves spread instead of convoying; the start draws from the shard's
// private PRNG, so the miss path touches no shared state.
//
// A hit on a victim's deque steals half its items (bounded by
// stealBatchMax): the first is returned, the rest move — boxes and all —
// onto the thief's own deque, so one miss amortizes the whole
// redistribution instead of paying a full O(workers) scan per item
// (ROADMAP's steal-half item; PoolStats.Steals, the bench's
// sched.steals_per_op, observes it).
func (p *Stealing[T]) popFor(w int) (item T, ok bool) {
	if item, ok = p.PopOwn(w); ok {
		return item, true
	}
	sh := &p.shards[w]
	if item, ok = sh.takeLane(false); ok {
		return item, true
	}
	if item, ok = p.takeInbox(sh); ok || p.workers == 1 {
		return item, ok
	}
	n := p.workers - 1
	start := sh.randN(n)
	for i := 0; i < n; i++ {
		// Index (start+i)%n of the other workers in ascending order: the
		// indices at or above w shift up by one to skip w itself.
		v := (start + i) % n
		if v >= w {
			v++
		}
		if item, ok = p.stealFrom(w, sh, v); ok {
			return item, true
		}
	}
	var zero T
	return zero, false
}

// PopOwn is the pop behind a waiting task's help step: the newest item of
// worker's own deque (the soloQ top at one worker) — popFor's first step,
// and nothing else. It never steals and never reads the creator lane or the
// inbox. Owner-only, like a deque push: only the holder of worker's token
// may call it.
func (p *Stealing[T]) PopOwn(worker int) (item T, ok bool) {
	sh := &p.shards[worker]
	if !sh.newBatch {
		// Whatever worker runs next opens its own lane batch. (Written only
		// on a change: the flag shares the shard with counters thieves poll.)
		sh.newBatch = true
	}
	if p.workers == 1 {
		n := len(p.soloQ)
		if n == 0 {
			return item, false
		}
		var zero T
		item, p.soloQ[n-1] = p.soloQ[n-1], zero
		p.soloQ = p.soloQ[:n-1]
		p.soloLen.Store(int64(n - 1))
		return item, true
	}
	if box, ok := sh.deque.PopBottom(); ok {
		return p.consumeBox(worker, box), true
	}
	return item, false
}

// PutBack returns an item the help step declined to the bottom of worker's
// own deque, and the kick matches it with any token that retired while it
// was out (the Dekker pairing of Submit), so a declined item never sits
// beside a free token. Owner-only, like PopOwn.
func (p *Stealing[T]) PutBack(item T, worker int) {
	p.pushItem(item, worker)
	p.kick()
}

// stealFrom makes one visit to victim v on behalf of thief w: the victim's
// oldest lane creator, then its deque top (with the bounded steal-half
// migration), then its inbox. A creator goes
// first because it is a whole subtree the victim will not reach until its
// own deque is empty: the thief instantiates and runs that subtree on its
// own deque instead of coming back for the victim's leaves a steal at a
// time. A hit is charged to the thief's steal counter.
func (p *Stealing[T]) stealFrom(w int, sh *poolShard[T], v int) (item T, ok bool) {
	vs := &p.shards[v]
	if item, ok = vs.takeLane(true); ok {
		sh.steals.Add(1)
		return item, true
	}
	if vs.deque.Size() > 0 {
		// Failpoint: widen the window between the size check and the steal
		// CAS, racing it against the owner's pushes and rival thieves.
		chaos.Maybe(chaos.SchedStealCAS)
		if box, bok := vs.deque.Steal(); bok {
			// Steal half (bounded): keep the extras on our own deque;
			// their boxes migrate with them.
			stolen := int64(1)
			n := vs.deque.Size() / 2
			if n > stealBatchMax-1 {
				n = stealBatchMax - 1
			}
			for ; n > 0; n-- {
				q, qok := vs.deque.Steal()
				if !qok {
					break
				}
				sh.deque.PushBottom(q)
				stolen++
			}
			sh.steals.Add(stolen)
			return p.consumeBox(w, box), true
		}
	}
	if item, ok = p.takeInbox(vs); ok {
		sh.steals.Add(1)
		return item, true
	}
	return item, false
}

// anyQueued reports whether any shard holds a queued item. Seq-cst loads of
// every deque's indices and inbox and lane counts: a retirer calling this
// after parking its token observes any item published before the
// submitter's token-list recheck (the Dekker pairing in releaseToken).
func (p *Stealing[T]) anyQueued() bool {
	if p.soloLen.Load() > 0 {
		return true
	}
	for i := range p.shards {
		sh := &p.shards[i]
		if sh.deque.Size() > 0 || sh.ilen.Load() > 0 || sh.llen.Load() > 0 {
			return true
		}
	}
	return false
}

// handToWaiter gives token w to a blocked Acquire, if any. Release points
// call this before looking at queued work: a resuming taskwait holds a live
// task mid-execution, and finishing it beats starting fresh work.
func (p *Stealing[T]) handToWaiter(w int) bool {
	if p.nwaiters.Load() == 0 {
		return false
	}
	p.wmu.Lock()
	if len(p.waiters) == 0 {
		p.wmu.Unlock()
		return false
	}
	ch := p.waiters[0]
	p.waiters = p.waiters[1:]
	p.nwaiters.Store(int64(len(p.waiters)))
	p.wmu.Unlock()
	ch <- w
	return true
}

// releaseToken parks token w in the free list and then closes the two
// lost-wakeup windows of the park: a waiter that registered after the
// waiter check, and an item that was queued after the emptiness check. On
// each recheck hit it reclaims a token and serves the counterpart; a
// reclaim that finds the counterpart already consumed loops — the token
// must be parked again, and the park must recheck again.
func (p *Stealing[T]) releaseToken(w int) {
	for {
		if p.handToWaiter(w) {
			return
		}
		p.tokens.push(w)
		// Failpoint: widen the window between parking the token and the
		// recheck below — the exact lost-wakeup race the recheck closes.
		chaos.Maybe(chaos.SchedTokenRetire)
		// Dekker recheck: both publications (waiter registration, item
		// queueing) are ordered before their own recheck of the free list,
		// so if neither is visible here, whoever published after our push
		// sees the token.
		if p.nwaiters.Load() == 0 && !p.anyQueued() {
			return
		}
		w2, ok := p.tokens.tryPop()
		if !ok {
			return // someone else reclaimed; responsibility moved
		}
		w = w2
		if item, ok := p.popFor(w); ok {
			p.spawnGo(item, w)
			return
		}
	}
}

// kick closes the submitter-side lost-wakeup window: with the item already
// published, match any free token to queued work. In the common case — all
// tokens busy — this is a single load of the free-list head. Failing to
// find an item after claiming a token means a racing worker took it; the
// token goes back through the full release path (which rechecks both
// sides).
func (p *Stealing[T]) kick() {
	// Failpoint: widen the window between the caller's item publication
	// and the token-list recheck — the submitter side of the Dekker pair.
	chaos.Maybe(chaos.SchedDekkerRecheck)
	for {
		w, ok := p.tokens.tryPop()
		if !ok {
			return
		}
		if item, ok := p.popFor(w); ok {
			p.spawnGo(item, w)
			continue
		}
		p.releaseToken(w)
		return
	}
}

// Finish is called by a runner that completed its item and still holds
// worker w — and only by that runner; the call consumes the token unless
// ok is true. A blocked Acquire wins the token first, then the worker's
// own shard and steal targets, and otherwise the token retires.
func (p *Stealing[T]) Finish(worker int) (next T, ok bool) {
	var zero T
	if p.handToWaiter(worker) {
		return zero, false
	}
	if item, ok := p.popFor(worker); ok {
		return item, true
	}
	p.releaseToken(worker)
	return zero, false
}

// Yield releases worker w while its holder blocks (taskwait, taskgroup,
// throttle): the token redeploys to a blocked Acquire, to queued work on a
// fresh goroutine, or to the free list. Only the token's current holder may
// call it, and it must reacquire a token via Acquire before touching
// per-worker state again.
func (p *Stealing[T]) Yield(worker int) {
	if p.handToWaiter(worker) {
		return
	}
	if item, ok := p.popFor(worker); ok {
		p.spawnGo(item, worker)
		return
	}
	p.releaseToken(worker)
}

// Acquire blocks until a worker token is available and returns it. Safe for
// any goroutine; release points prefer blocked Acquires over fresh queued
// work. The slow path publishes the waiter first and then rechecks the free list, pairing
// with releaseToken's publish-then-recheck from the other side.
func (p *Stealing[T]) Acquire() int {
	if w, ok := p.tokens.tryPop(); ok {
		return w
	}
	p.wmu.Lock()
	ch := make(chan int, 1)
	p.waiters = append(p.waiters, ch)
	p.nwaiters.Store(int64(len(p.waiters)))
	// Recheck after publishing: a token parked between our fast path and
	// the registration would otherwise sleep forever opposite a free token.
	if w, ok := p.tokens.tryPop(); ok {
		p.waiters = p.waiters[:len(p.waiters)-1]
		p.nwaiters.Store(int64(len(p.waiters)))
		p.wmu.Unlock()
		return w
	}
	p.wmu.Unlock()
	return <-ch
}

// Idle reports whether no items are queued and all tokens are free — i.e.
// the pool is quiescent. Exact when no operation is in flight.
func (p *Stealing[T]) Idle() bool {
	return !p.anyQueued() &&
		p.tokens.free() == int64(p.workers) &&
		p.nwaiters.Load() == 0
}

// QueueLen returns the number of queued (not running) items, summed over
// the shards. The sum may be momentarily stale while operations are in
// flight; it is exact at quiescence.
func (p *Stealing[T]) QueueLen() int {
	n := p.soloLen.Load()
	for i := range p.shards {
		sh := &p.shards[i]
		n += sh.deque.Size() + sh.ilen.Load() + sh.llen.Load()
	}
	return int(n)
}

// Probe returns an instantaneous (not mutually consistent) observation of
// the admission state: each counter is its own atomic read, so transient
// contradictions — queued work and a free token at once — are expected
// during admission windows. Monitors must require the signature to persist.
func (p *Stealing[T]) Probe() Probe {
	var creators int64
	for i := range p.shards {
		creators += p.shards[i].llen.Load()
	}
	return Probe{
		Queued:     p.QueueLen(),
		Creators:   int(creators),
		FreeTokens: int(p.tokens.free()),
		Waiters:    int(p.nwaiters.Load()),
	}
}

// SubmitCreator admits an item that should start in program order: a task
// that touches no data itself and only instantiates children (the runtime
// routes tasks whose depend clause is non-empty and all weak here — §VI of
// the paper). Run newest-first, as a LIFO deque would, such creators
// instantiate their whole subtrees under predecessors that do not exist
// yet, so every child blocks; run in program order, each subtree finds its
// predecessors already finished. A free token starts the item at once, as
// Submit; otherwise it joins the submitting worker's creator lane instead
// of its LIFO deque, and from follows Submit's ownership rule. The owner
// reaches the lane only once its deque is empty, so the work a creator
// spawned is still drained depth-first; it then takes creators in
// depth-first program order — siblings oldest first, a creator's own
// sub-creators before its later siblings — and a thief takes a victim's
// outermost, oldest creator ahead of the victim's deque (stealFrom). A
// submitter holding no token has no lane: its item takes the external
// route of Submit.
func (p *Stealing[T]) SubmitCreator(item T, from int) {
	if w, ok := p.tokens.tryPop(); ok {
		p.spawnGo(item, w)
		return
	}
	if from >= 0 && from < p.workers {
		p.shards[from].pushLane(item)
	} else {
		p.pushItem(item, from)
	}
	p.kick()
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
