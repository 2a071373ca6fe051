package sched

import "sync/atomic"

// clDeque is a Chase-Lev work-stealing deque (Chase & Lev, SPAA'05, in the
// sequentially-consistent formulation of Lê et al., PPoPP'13 — Go's
// sync/atomic operations are seq-cst, so the simple version is correct).
//
// Ownership discipline: PushBottom and PopBottom may only be called by the
// deque's owner — in this package, the goroutine currently holding the
// owning worker's token — while Steal may be called by any goroutine at any
// time. The owner's fast paths are lock-free (plain atomic loads/stores; a
// single CAS only when racing a thief for the last element), and Steal is a
// bounded-retry CAS on top.
//
// Items are boxed (*T) so that slots can be published atomically. The deque
// itself neither allocates nor frees boxes: the caller passes a box to
// PushBottom and receives one back from PopBottom/Steal, so boxes travel
// with items (a stolen item's box crosses to the thief) and the pool layer
// recycles them through internal/mempool — a consumed box goes back to the
// consumer's free-list lane, and the steady-state queue path allocates
// nothing. Recycling a consumed box is safe: losing thieves discard their
// speculative slot read when the top CAS fails, and never dereference it.
type clDeque[T any] struct {
	top    atomic.Int64 // next index to steal; advanced by CAS
	bottom atomic.Int64 // next index to push; owner-written only
	buf    atomic.Pointer[ringBuf[T]]
}

type ringBuf[T any] struct {
	mask  int64 // len(slots) - 1; len is a power of two
	slots []atomic.Pointer[T]
}

const initialDequeCap = 16

func newRingBuf[T any](capacity int64) *ringBuf[T] {
	return &ringBuf[T]{mask: capacity - 1, slots: make([]atomic.Pointer[T], capacity)}
}

func (d *clDeque[T]) init() {
	d.buf.Store(newRingBuf[T](initialDequeCap))
}

// Size returns a racy snapshot of the number of queued items; exact only at
// quiescence. Thieves use it to skip empty victims without touching their
// cache lines further.
func (d *clDeque[T]) Size() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b <= t {
		return 0
	}
	return b - t
}

// PushBottom appends a boxed item at the bottom. Owner only. The box must
// be fully written before the call; publication through the slot's atomic
// store synchronizes it with thieves.
func (d *clDeque[T]) PushBottom(p *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= int64(len(buf.slots)) {
		buf = d.grow(buf, t, b)
	}
	buf.slots[b&buf.mask].Store(p)
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live range [t, b). Owner only. Thieves
// concurrently reading the old ring see the same items (the live range is
// never mutated in place), and any steal completed against the old ring
// advances top, which the owner observes through the shared counter.
func (d *clDeque[T]) grow(old *ringBuf[T], t, b int64) *ringBuf[T] {
	nb := newRingBuf[T](int64(len(old.slots)) * 2)
	for i := t; i < b; i++ {
		nb.slots[i&nb.mask].Store(old.slots[i&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}

// PopBottom removes the most recently pushed item (LIFO), transferring
// box ownership to the caller. Owner only. The only synchronization with
// thieves is the top CAS when exactly one item remains.
func (d *clDeque[T]) PopBottom() (p *T, ok bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b) // reserve: thieves now refuse to go past b
	t := d.top.Load()
	if t > b {
		// Deque was empty; undo the reservation.
		d.bottom.Store(b + 1)
		return nil, false
	}
	buf := d.buf.Load()
	slot := &buf.slots[b&buf.mask]
	p = slot.Load()
	if t == b {
		// Last element: race thieves for it through top.
		if !d.top.CompareAndSwap(t, t+1) {
			// A thief won; the deque is empty.
			d.bottom.Store(b + 1)
			return nil, false
		}
		slot.Store(nil)
		d.bottom.Store(b + 1)
		return p, true
	}
	slot.Store(nil)
	return p, true
}

// Clearing consumed slots: the owner's pop clears its slot so the box (and
// whatever the item pins — for the runtime, a completed *Task tree) does
// not stay reachable until the ring index wraps. This is safe: with t < b
// no thief can reach index b (thieves stop at bottom), and in the t == b
// case the slot is cleared only after winning the top CAS, after which
// every thief's CAS on that index fails and its speculative slot read is
// discarded. Steal must NOT clear: once top has passed the stolen index
// the owner may already be wrapping a new push onto the same physical
// slot, and a late nil-store from the thief would destroy that item.
//
// Box recycling rests on the same argument: the winner of an index — the
// owner via PopBottom, or the thief whose top CAS succeeded — is the only
// party that ever dereferences the box afterwards, so it may reuse it
// immediately. A loser's speculatively loaded pointer is discarded without
// a dereference, and a slow thief that reads a recycled (rewritten) box
// pointer through a wrapped slot fails its CAS on the stale top value.

// Steal removes the oldest item (FIFO), transferring box ownership to the
// caller. Safe from any goroutine, including the owner. Retries only when
// it loses a CAS race while items remain.
func (d *clDeque[T]) Steal() (p *T, ok bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return nil, false
		}
		buf := d.buf.Load()
		p = buf.slots[t&buf.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			// The CAS proves no other thief took index t and the owner
			// could not have wrapped over it (wrap requires top > t first),
			// so p is the item that was at t when we loaded it.
			return p, true
		}
	}
}
