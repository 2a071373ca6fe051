package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
)

// Differential admission tests: the central single-lock Scheduler and the
// stealing pool are driven over identical randomized schedules of Submit /
// SubmitBatch / Finish / Yield+Acquire, and each must uphold the same
// admission invariants — every item runs exactly once (no lost wakeups, no
// duplication), the concurrency cap holds (no token leaks or forgeries),
// and at quiescence Idle() is exactly true with QueueLen() == 0. Dispatch
// *order* legitimately differs between pools; the invariants may not. This
// is the ready-pool analogue of internal/deps/differential_test.go, and the
// CI race pass runs it with -race to validate the stealing pool's lock-free
// paths.

// admSchedule is a pool-independent randomized admission schedule: items
// [0, ext) arrive from outside (no worker token) in the given batch sizes;
// a runner executing item i additionally submits a child item ext+i from
// its own worker when childOf(i), and makes a Yield/Acquire token
// round-trip (the taskwait protocol) when yields(i).
type admSchedule struct {
	workers int
	ext     int
	batches []int
	childB  byte
	yieldB  byte
}

func genAdmSchedule(rng *rand.Rand) admSchedule {
	sc := admSchedule{
		workers: 1 + rng.Intn(8),
		ext:     1 + rng.Intn(200),
		childB:  byte(rng.Intn(256)),
		yieldB:  byte(rng.Intn(256)),
	}
	for left := sc.ext; left > 0; {
		b := 1 + rng.Intn(7)
		if b > left {
			b = left
		}
		sc.batches = append(sc.batches, b)
		left -= b
	}
	return sc
}

func (sc admSchedule) childOf(item int) bool {
	return item < sc.ext && (byte(item*131)^sc.childB)%3 == 0
}

func (sc admSchedule) yields(item int) bool {
	return (byte(item*137)^sc.yieldB)%5 == 0
}

func (sc admSchedule) total() int {
	n := sc.ext
	for i := 0; i < sc.ext; i++ {
		if sc.childOf(i) {
			n++
		}
	}
	return n
}

// runAdmSchedule drives one pool through the schedule and checks the
// admission invariants.
func runAdmSchedule(t *testing.T, name string, mk func(spawn func(item, worker int)) Queue[int], sc admSchedule) bool {
	t.Helper()
	total := sc.total()
	counts := make([]atomic.Int32, 2*sc.ext)
	var wg sync.WaitGroup
	wg.Add(total)
	var cur, peak atomic.Int64
	var q Queue[int]
	q = mk(func(item, worker int) {
		for {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			counts[item].Add(1)
			if sc.childOf(item) {
				q.Submit(sc.ext+item, worker)
			}
			if sc.yields(item) {
				cur.Add(-1)
				q.Yield(worker)
				worker = q.Acquire()
				cur.Add(1)
			}
			cur.Add(-1)
			wg.Done()
			next, ok := q.Finish(worker)
			if !ok {
				return
			}
			item = next
		}
	})
	id := 0
	for _, b := range sc.batches {
		if b == 1 {
			q.Submit(id, -1)
			id++
			continue
		}
		batch := make([]int, b)
		for j := range batch {
			batch[j] = id
			id++
		}
		q.SubmitBatch(batch, -1)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for !q.Idle() {
		if time.Now().After(deadline) {
			t.Errorf("%s: pool did not quiesce (queued=%d)", name, q.QueueLen())
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ql := q.QueueLen(); ql != 0 {
		t.Errorf("%s: QueueLen = %d at quiescence", name, ql)
		return false
	}
	if p := peak.Load(); p > int64(sc.workers) {
		t.Errorf("%s: peak concurrency %d exceeds %d workers (token leak)", name, p, sc.workers)
		return false
	}
	for i := range counts {
		want := int32(0)
		if i < sc.ext || sc.childOf(i-sc.ext) {
			want = 1
		}
		if c := counts[i].Load(); c != want {
			t.Errorf("%s: item %d ran %d times, want %d", name, i, c, want)
			return false
		}
	}
	return true
}

func TestPoolDifferentialAdmission(t *testing.T) {
	f := func(seed int64) bool {
		sc := genAdmSchedule(rand.New(rand.NewSource(seed)))
		for _, p := range testPools {
			mk := func(spawn func(int, int)) Queue[int] { return p.mk(sc.workers, spawn) }
			if !runAdmSchedule(t, fmt.Sprintf("%s/seed=%d", p.name, seed), mk, sc) {
				return false
			}
		}
		return true
	}
	max := 40
	if testing.Short() {
		max = 10
	}
	randtest.Check(t, max, 51, f)
}
