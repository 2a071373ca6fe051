package sched

import "sync/atomic"

// tokenList is a lock-free free-list of worker tokens: a Treiber stack
// threaded through a fixed array (token ids are dense in [0, workers)), so
// push and tryPop are a single CAS each and never allocate. The head word
// packs the top token with a modification tag that bumps on every
// successful operation, which defeats ABA: a head observed before an
// interleaved pop/push sequence can never match again.
//
// nfree counts free tokens; it is maintained after the corresponding CAS,
// so it is exact whenever the list is quiescent (the Idle contract) and at
// worst momentarily stale during concurrent hand-offs.
type tokenList struct {
	head  atomic.Uint64   // low 32 bits: top token id + 1 (0 = empty); high 32: ABA tag
	next  []atomic.Uint32 // next[w]: id + 1 of the free token below w
	nfree atomic.Int64
}

func newTokenList(workers int) *tokenList {
	l := &tokenList{next: make([]atomic.Uint32, workers)}
	// Push in descending order so token 0 is handed out first.
	for w := workers - 1; w >= 0; w-- {
		l.push(w)
	}
	return l
}

func (l *tokenList) push(w int) {
	for {
		h := l.head.Load()
		l.next[w].Store(uint32(h))
		nh := (h>>32+1)<<32 | uint64(w+1)
		if l.head.CompareAndSwap(h, nh) {
			l.nfree.Add(1)
			return
		}
	}
}

// tryPop removes and returns a free token. It fails only when the list is
// observed empty — a CAS lost to a concurrent push/pop retries, so a free
// token is never overlooked (the idle protocol depends on this).
func (l *tokenList) tryPop() (int, bool) {
	for {
		h := l.head.Load()
		idx := uint32(h)
		if idx == 0 {
			return -1, false
		}
		w := int(idx - 1)
		nxt := l.next[w].Load()
		nh := (h>>32+1)<<32 | uint64(nxt)
		if l.head.CompareAndSwap(h, nh) {
			l.nfree.Add(-1)
			return w, true
		}
	}
}

func (l *tokenList) free() int64 { return l.nfree.Load() }
