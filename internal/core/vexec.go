package core

import (
	"container/heap"
	"fmt"
)

// Virtual-time execution: a discrete-event simulation over the same
// dependency engine. Each task's body runs (instantaneously) when the task
// is assigned to a virtual core; the core stays busy for the task's Cost
// plus its accumulated creation cost, and the task's completion pipeline
// (weakwait hand-over, release, cascades) fires at that virtual end time.
// With VirtualSubmitCost > 0, a created task additionally cannot start
// before its creator "reaches" it (arrival times), which models the task
// instantiation serialization the paper's Figure 4 exposes.
//
// This lets the strong-scaling experiments (Figures 4 and 6) sweep 4–48
// cores regardless of the host machine, while preserving every
// dependency-timing effect of the runtime.

type vitem struct {
	end    int64
	seq    int64 // FIFO tie-break for determinism
	task   *Task
	worker int
}

type vheap []vitem

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *vheap) Push(x any)   { *h = append(*h, x.(vitem)) }
func (h *vheap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type vstate struct {
	idle     []int
	heap     vheap // pending completions
	arrivals vheap // tasks ready on dependencies but not yet created
	ready    []*Task
	now      int64
	busySum  int64
	seq      int64
}

func newVState(workers int) *vstate {
	v := &vstate{}
	for w := workers - 1; w >= 0; w-- {
		v.idle = append(v.idle, w)
	}
	return v
}

// popReady removes the oldest startable ready task: the virtual ready list
// is FIFO.
func (r *Runtime) popReady() *Task {
	v := r.v
	t := v.ready[0]
	v.ready = v.ready[1:]
	return t
}

// venqueue files a dependency-ready task: into the ready list if it has
// been created by now, otherwise into the arrivals heap.
func (r *Runtime) venqueue(t *Task) {
	v := r.v
	if t.vArrival > v.now {
		v.seq++
		heap.Push(&v.arrivals, vitem{end: t.vArrival, seq: v.seq, task: t})
		return
	}
	v.ready = append(v.ready, t)
}

func (r *Runtime) runVirtual(root func(tc *TaskContext)) {
	v := r.v
	rootTask := r.newTask(nil, TaskSpec{Label: "main", Body: root}, -1)
	tc := &TaskContext{rt: r, task: rootTask, worker: -1}
	r.invokeBody(rootTask, tc)
	rootReady, _ := r.finishBody(rootTask, -1)
	r.dispatchAll(rootReady, -1)

	for {
		for len(v.idle) > 0 && len(v.ready) > 0 {
			w := v.idle[len(v.idle)-1]
			v.idle = v.idle[:len(v.idle)-1]
			r.startVirtualTask(r.popReady(), w)
		}
		// Advance to the earliest event: a task arrival (creation) or a
		// completion. Arrivals at the same instant are processed first so
		// the freed tasks are visible to the assignment pass.
		haveA, haveC := len(v.arrivals) > 0, len(v.heap) > 0
		switch {
		case haveA && (!haveC || v.arrivals[0].end <= v.heap[0].end):
			it := heap.Pop(&v.arrivals).(vitem)
			v.now = it.end
			v.ready = append(v.ready, it.task)
		case haveC:
			it := heap.Pop(&v.heap).(vitem)
			v.now = it.end
			ready, _ := r.finishBody(it.task, -1)
			// Direct successor hand-off, as in real mode: the freed core
			// immediately runs one startable task this completion readied.
			next := (*Task)(nil)
			for _, n := range ready {
				t := n.User.(*Task)
				if next == nil && !r.cfg.NoHandoff && t.vArrival <= v.now {
					next = t
					continue
				}
				r.venqueue(t)
			}
			if next != nil {
				r.startVirtualTask(next, it.worker)
			} else {
				v.idle = append(v.idle, it.worker)
			}
		default:
			// No pending events.
			goto done
		}
	}
done:
	if n := r.taskCounts().live; n != 0 {
		panic(fmt.Sprintf("core: virtual run deadlocked with %d live tasks", n))
	}
	r.wallDur = 0
}

// startVirtualTask assigns t to virtual core w at the current virtual time:
// the body runs now (creating children), and completion fires after the
// task's cost plus its accumulated creation cost.
func (r *Runtime) startVirtualTask(t *Task, w int) {
	r.taskStarted(t, -1)
	v := r.v
	if r.caches != nil {
		r.feedCache(t, w)
	}
	tc := &TaskContext{rt: r, task: t, worker: w}
	r.invokeBody(t, tc)
	cost := t.spec.Cost
	if cost <= 0 {
		cost = 1
	}
	cost += t.vCreate
	if t.spec.Flops > 0 {
		r.flops.Add(t.spec.Flops)
	}
	if r.tracer != nil {
		r.tracer.Record(w, t.kind, v.now, v.now+cost)
	}
	v.busySum += cost
	v.seq++
	t.vEnd = v.now + cost
	heap.Push(&v.heap, vitem{end: t.vEnd, seq: v.seq, task: t, worker: w})
}
