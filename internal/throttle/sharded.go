package throttle

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
)

// sharded is the token-bucket admission window. The bound is a pool of
// admission credits: one credit per window slot, conserved across a global
// atomic balance, per-worker caches, and reservers in flight
//
//	balance + Σ caches + credits held by reservers = limit - open
//
// so whenever the balance and caches are non-negative the occupancy cannot
// exceed the bound. Reserve consumes a credit (prepaying the submitted
// task's window entry) and Started returns one; unreserved entries —
// dependency cascades, which must never block — overdraw the balance below
// zero and the returned credits of their starts repay it.
//
// Contention structure:
//
//   - fast path: Reserve takes a credit from the reserving worker's own
//     cache — one CAS on a cache line no other worker writes in steady
//     state. Empty caches refill by borrowing a batch from the global
//     balance, amortizing the shared-line traffic. When the window is at
//     least twice the worker count, batches are sized so all caches
//     together hold at most half the window; smaller windows clamp the
//     batch to one credit per worker (credit conservation still bounds
//     the caches to at most the whole window).
//   - Started returns the credit to the starting worker's cache (overflow
//     to the global balance): an uncontended CAS plus one load of the
//     waiter count, where the locked window takes a mutex and broadcasts.
//   - slow path: a reserver that finds no credit in its cache, the
//     balance, or any other cache (stealing, as the ready pool does) parks
//     on its shard's wait list.
//
// The lost-wakeup window between a parking reserver and a concurrent
// Started is closed Dekker-style, the same protocol as the sharded ready
// pools' idle protocol: the parker publishes its registration (wait list +
// waiter count) and then rechecks every credit source; the returner
// publishes its credit and then rechecks the waiter count. Under Go's
// sequentially consistent atomics at least one side observes the other. A
// wake-up delivered to a reserver that already satisfied itself on the
// recheck is forwarded to another parked reserver, so responsibility for a
// freed slot is never dropped.
type sharded struct {
	limit    int64
	workers  int
	batch    int64 // borrow quantum = per-worker cache cap
	balance  atomic.Int64
	open     atomic.Int64
	nwait    atomic.Int64
	parks    atomic.Int64
	borrows  atomic.Int64
	steals   atomic.Int64
	handoffs atomic.Int64
	reparks  atomic.Int64
	shards   []tshard
}

// tshard pads to two cache lines so one worker's credit-cache traffic does
// not false-share with its neighbours' (the same layout discipline as the
// ready pool's poolShard; a test asserts the 64-byte multiple).
type tshard struct {
	cache atomic.Int64 // credits cached by the owning worker
	wmu   sync.Mutex
	// wlist holds the parked reservers (FIFO). The wake value is the
	// batch-wake protocol: true carries the waker's credit with the wake —
	// the reserver owns it outright and resumes without retrying the
	// credit sources — false is a bare recheck hint (the Dekker fallback).
	wlist []chan bool
	_     [88]byte // 40 -> 128
}

// NewSharded creates the token-bucket window with the given bound and
// worker count.
func NewSharded(limit, workers int) Window {
	if limit <= 0 {
		panic("throttle: limit must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	batch := int64(limit) / int64(2*workers)
	if batch < 1 {
		batch = 1
	}
	s := &sharded{limit: int64(limit), workers: workers, batch: batch,
		shards: make([]tshard, workers)}
	s.balance.Store(int64(limit))
	return s
}

func (s *sharded) shardOf(worker int) int {
	if worker >= 0 && worker < s.workers {
		return worker
	}
	return 0
}

// takeCache removes one credit from c, failing when c holds none.
func takeCache(c *atomic.Int64) bool {
	for {
		n := c.Load()
		if n <= 0 {
			return false
		}
		if c.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// putCache adds one credit to c unless it is at the cap.
func putCache(c *atomic.Int64, cap int64) bool {
	for {
		n := c.Load()
		if n >= cap {
			return false
		}
		if c.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// borrow refills shard idx's cache with a batch of credits from the global
// balance (keeping one for the caller), failing when the balance is empty
// or overdrawn.
func (s *sharded) borrow(idx int) bool {
	for {
		bal := s.balance.Load()
		if bal <= 0 {
			return false
		}
		b := s.batch
		if bal < b {
			b = bal
		}
		if s.balance.CompareAndSwap(bal, bal-b) {
			if b > 1 {
				s.shards[idx].cache.Add(b - 1)
			}
			s.borrows.Add(1)
			return true
		}
	}
}

// tryAcquire takes one credit from any source, preferring locality: the
// reserving worker's own cache, then a batch borrow from the balance, then
// a steal from another worker's cache.
func (s *sharded) tryAcquire(idx int) bool {
	if takeCache(&s.shards[idx].cache) {
		return true
	}
	if s.borrow(idx) {
		return true
	}
	// Failpoint: delay before the cross-cache steal scan, racing it
	// against concurrent Started returns and rival stealers.
	chaos.Maybe(chaos.ThrottleCreditSteal)
	for i := 1; i < s.workers; i++ {
		if takeCache(&s.shards[(idx+i)%s.workers].cache) {
			s.steals.Add(1)
			return true
		}
	}
	return false
}

// put returns one credit. Batch-wake fast path: if a reserver is parked
// and the balance is not overdrawn, the credit is handed to it directly —
// popped from the wait list and sent with the wake — so a burst of
// completions wakes a burst of reservers, each owning its credit outright,
// with no wake/retry/re-park churn. An overdrawn balance (cascade entries
// pushed occupancy past the bound) disables the hand-off and is repaid
// first — a credit handed (or cached) while occupancy is above the bound
// would admit a reserver the bound should block, and the overdraft would
// otherwise persist through hand-off/reserve churn — then the worker's
// cache up to the cap, then the balance; a recheck of the waiter count
// (publish-then-recheck) covers reservers that registered after the
// fast-path test.
func (s *sharded) put(worker int) {
	idx := s.shardOf(worker)
	if s.balance.Load() >= 0 && s.nwait.Load() > 0 {
		// Failpoint: widen the window between the waiter-count check and
		// the hand-off pop, racing it against waiter deregistration.
		chaos.Maybe(chaos.ThrottleBatchWake)
		if s.handOff(idx) {
			return
		}
	}
	for {
		bal := s.balance.Load()
		if bal >= 0 {
			if putCache(&s.shards[idx].cache, s.batch) {
				break
			}
			if s.balance.CompareAndSwap(bal, bal+1) {
				break
			}
			continue
		}
		if s.balance.CompareAndSwap(bal, bal+1) {
			break
		}
	}
	if s.nwait.Load() > 0 {
		s.wakeOne(idx)
	}
}

// handOff pops one parked reserver, scanning wait lists from shard idx,
// and transfers the caller's credit to it; false means no reserver was
// found (the caller still owns the credit).
func (s *sharded) handOff(idx int) bool {
	if ch, ok := s.popWaiter(idx); ok {
		s.handoffs.Add(1)
		ch <- true
		return true
	}
	return false
}

// wakeOne pops one parked reserver and signals it to recheck the credit
// sources (no credit attached — the Dekker fallback wake).
func (s *sharded) wakeOne(idx int) {
	if ch, ok := s.popWaiter(idx); ok {
		ch <- false
	}
}

// popWaiter removes the oldest parked reserver, scanning wait lists from
// shard idx.
func (s *sharded) popWaiter(idx int) (chan bool, bool) {
	for i := 0; i < s.workers; i++ {
		sh := &s.shards[(idx+i)%s.workers]
		sh.wmu.Lock()
		if len(sh.wlist) > 0 {
			ch := sh.wlist[0]
			sh.wlist = sh.wlist[1:]
			s.nwait.Add(-1)
			sh.wmu.Unlock()
			return ch, true
		}
		sh.wmu.Unlock()
	}
	return nil, false
}

// deregister removes ch from sh's wait list; false means a waker already
// popped it (a signal is in flight on ch).
func (s *sharded) deregister(sh *tshard, ch chan bool) bool {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	for i, c := range sh.wlist {
		if c == ch {
			sh.wlist = append(sh.wlist[:i], sh.wlist[i+1:]...)
			s.nwait.Add(-1)
			return true
		}
	}
	return false
}

// park blocks until a credit is acquired. Each round registers on the
// shard's wait list, then — Dekker — rechecks every credit source before
// sleeping. A wake-up carrying a credit (direct hand-off) ends the park
// immediately: the credit is the reserver's, no retry needed. A bare wake
// is a hint to recheck; a reserver that loses the recheck race to a fresh
// reserver parks again (the credit that fresh reserver consumed funds a
// task whose start will return it, with a hand-off to whoever is parked).
func (s *sharded) park(idx int) {
	sh := &s.shards[idx]
	for {
		ch := make(chan bool, 1)
		sh.wmu.Lock()
		sh.wlist = append(sh.wlist, ch)
		sh.wmu.Unlock()
		s.nwait.Add(1)
		if s.tryAcquire(idx) {
			if !s.deregister(sh, ch) {
				// A waker popped us concurrently; consume its signal and
				// re-dispatch: a handed-off credit must not be dropped (it
				// goes to another parked reserver, or back to the pool),
				// and a bare hint is forwarded.
				if <-ch {
					s.put(idx)
				} else {
					s.wakeOne(idx)
				}
			}
			return
		}
		if <-ch {
			return // direct hand-off: the credit is ours
		}
		if s.tryAcquire(idx) {
			return
		}
		s.reparks.Add(1)
	}
}

func (s *sharded) Reserve(worker int, y Yielder) (int, bool) {
	idx := s.shardOf(worker)
	if s.tryAcquire(idx) {
		return worker, true
	}
	s.parks.Add(1)
	if y != nil {
		y.Yield(worker)
	}
	s.park(idx)
	if y != nil {
		worker = y.Acquire()
	}
	return worker, true
}

func (s *sharded) Entered(n int64) {
	s.open.Add(n)
	s.balance.Add(-n)
}

func (s *sharded) EnteredReserved() { s.open.Add(1) }

func (s *sharded) Refund(worker int) { s.put(worker) }

func (s *sharded) Started(worker int) {
	s.open.Add(-1)
	s.put(worker)
}

func (s *sharded) Open() int64 { return s.open.Load() }

func (s *sharded) Limit() int { return int(s.limit) }

// Credits sums the global balance and every per-worker cache. The reads
// are independent atomics, so under load the sum may be instantaneously
// inconsistent (a credit mid-transfer is counted zero or twice); at
// quiescence it is exact and equals limit - open. Credits held in flight
// by reservers between Reserve and Entered are deliberately excluded.
func (s *sharded) Credits() int64 {
	n := s.balance.Load()
	for i := range s.shards {
		n += s.shards[i].cache.Load()
	}
	return n
}

// Waiters reports the reservers currently parked across all wait lists.
func (s *sharded) Waiters() int64 { return s.nwait.Load() }

func (s *sharded) Stats() Stats {
	return Stats{
		Parks: s.parks.Load(), Borrows: s.borrows.Load(), Steals: s.steals.Load(),
		Handoffs: s.handoffs.Load(), Reparks: s.reparks.Load(),
	}
}
