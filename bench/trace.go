package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	nanos "repro"
	"repro/internal/deps"
)

// The tracer is the benchmark's view of the runtime from outside: a span
// around every call a program makes into the public API (Submit, Taskwait,
// Graph, Worksharing) and around every body the runtime invokes. Programs
// call the runtime only through the methods below; on a nil tracer each is
// the bare runtime call, which is how the timed phase runs.
//
// Spans go to per-worker buffers indexed by tc.Worker(): only the holder of
// a worker token appends to that worker's buffer, so recording takes no
// lock. A blocking call (Taskwait, Graph, a throttled Submit) may return on
// another worker; the span is then appended to the buffer of the worker
// held at its end.

type spanKind uint8

const (
	kSubmit spanKind = iota
	kBody
	kTaskwait
	kGraph
	kWorksharing
	kChunk
)

var kindNames = [...]string{"submit", "body", "taskwait", "graph", "worksharing", "chunk"}

// A span is one call across a layer boundary. parent is the span that
// caused it: for a call into the runtime, the body (or graph region) that
// made the call; for a body, the Submit that created the task; for a
// worksharing chunk, the Worksharing call. Calls are synchronous children
// of their parent — they run on its goroutine, inside its interval — and
// are what self time subtracts; bodies and chunks run asynchronously to the
// call that caused them.
type span struct {
	id, parent uint64
	start, end int64 // ns since the rep started
	kind       spanKind
	worker     int16 // worker held when the span started
	noDeps     bool  // submit spans: the task had no depend entries
}

func (s *span) dur() int64 { return s.end - s.start }

// synchronous reports whether the span ran inside its parent's interval on
// the parent's goroutine.
func (k spanKind) synchronous() bool { return k != kBody && k != kChunk }

type workerBuf struct {
	spans []span
	next  uint64 // span ids handed out on this worker
	cur   uint64 // span of the body (or region) running on this worker
	_     [64]byte
}

type tracer struct {
	base time.Time
	w    []workerBuf
	cap  *capture // non-nil on the one capture rep
}

func newTracer(workers int) *tracer {
	return &tracer{w: make([]workerBuf, workers)}
}

// begin starts a rep: buffers keep their capacity, ids restart.
func (x *tracer) begin() {
	for i := range x.w {
		x.w[i].spans = x.w[i].spans[:0]
		x.w[i].next, x.w[i].cur = 0, 0
	}
	x.base = time.Now()
}

func (x *tracer) now() int64 { return int64(time.Since(x.base)) }

func (x *tracer) newID(w int) uint64 {
	b := &x.w[w]
	b.next++
	return uint64(w+1)<<40 | b.next
}

func (x *tracer) put(w int, s span) { x.w[w].spans = append(x.w[w].spans, s) }

// submit is tc.Submit.
func (x *tracer) submit(tc *nanos.TaskContext, spec nanos.TaskSpec) {
	if x == nil {
		tc.Submit(spec)
		return
	}
	w := tc.Worker()
	id, parent := x.newID(w), x.w[w].cur
	body := spec.Body
	spec.Body = func(tc *nanos.TaskContext) { x.body(tc, id, body) }
	if x.cap != nil {
		x.cap.add(parent, id, spec)
	}
	start := x.now()
	tc.Submit(spec)
	end := x.now()
	x.returned(tc, span{id: id, parent: parent, start: start, end: end,
		kind: kSubmit, worker: int16(w), noDeps: len(spec.Deps) == 0})
}

// returned records the span of a call a body made, on the worker held now.
// Any call may block (Taskwait, a Graph barrier, a Submit at a full
// throttle window), letting other bodies run on the worker meanwhile and
// the caller resume on another one, so the caller's span is reinstated as
// the current one there.
func (x *tracer) returned(tc *nanos.TaskContext, s span) {
	w := tc.Worker()
	x.w[w].cur = s.parent
	x.put(w, s)
}

// body runs a task body under a span caused by the Submit span cause.
func (x *tracer) body(tc *nanos.TaskContext, cause uint64, f func(*nanos.TaskContext)) {
	w := tc.Worker()
	id := x.newID(w)
	x.w[w].cur = id
	start := x.now()
	f(tc)
	end := x.now()
	x.put(tc.Worker(), span{id: id, parent: cause, start: start, end: end, kind: kBody, worker: int16(w)})
}

// call wraps a Taskwait or a Graph region; inner makes the calls made
// inside f children of this span.
func (x *tracer) call(tc *nanos.TaskContext, kind spanKind, inner bool, f func()) {
	w := tc.Worker()
	id, parent := x.newID(w), x.w[w].cur
	if inner {
		x.w[w].cur = id
	}
	start := x.now()
	f()
	end := x.now()
	x.returned(tc, span{id: id, parent: parent, start: start, end: end, kind: kind, worker: int16(w)})
}

// taskwait is tc.Taskwait.
func (x *tracer) taskwait(tc *nanos.TaskContext) {
	if x == nil {
		tc.Taskwait()
		return
	}
	x.call(tc, kTaskwait, false, tc.Taskwait)
}

// graph is tc.Graph.
func (x *tracer) graph(tc *nanos.TaskContext, name string, body func(*nanos.TaskContext)) {
	if x == nil {
		tc.Graph(name, body)
		return
	}
	x.call(tc, kGraph, true, func() { tc.Graph(name, body) })
}

// worksharing is tc.Worksharing. The region's chunks are spans caused by
// the call's span.
func (x *tracer) worksharing(tc *nanos.TaskContext, spec nanos.WorksharingSpec) {
	if x == nil {
		tc.Worksharing(spec)
		return
	}
	w := tc.Worker()
	id, parent := x.newID(w), x.w[w].cur
	body := spec.Body
	spec.Body = func(tc *nanos.TaskContext, lo, hi int64) {
		// Chunk bodies may not block, so the worker is the same at both ends.
		cw := tc.Worker()
		cid, prev := x.newID(cw), x.w[cw].cur
		x.w[cw].cur = cid
		start := x.now()
		body(tc, lo, hi)
		end := x.now()
		x.w[cw].cur = prev
		x.put(cw, span{id: cid, parent: id, start: start, end: end, kind: kChunk, worker: int16(cw)})
	}
	if x.cap != nil {
		x.cap.add(parent, id, nanos.TaskSpec{Deps: spec.Deps(spec.Lo, spec.Hi)})
	}
	start := x.now()
	tc.Worksharing(spec)
	end := x.now()
	x.returned(tc, span{id: id, parent: parent, start: start, end: end, kind: kWorksharing, worker: int16(w)})
}

// ------------------------------------------------------------- capture

// capture records, on one untimed rep, the depend-spec stream a program
// submits: per task its submitter and its depend entries in engine form.
// The single-layer drives replay it.
type capture struct {
	mu    sync.Mutex
	tasks []capturedTask
}

type capturedTask struct {
	submitter uint64 // body span that submitted the task; 0 = unknown
	submit    uint64 // the task's Submit span
	weakWait  bool
	specs     []deps.Spec
}

func (c *capture) add(submitter, submit uint64, spec nanos.TaskSpec) {
	specs := make([]deps.Spec, len(spec.Deps))
	for i, d := range spec.Deps {
		specs[i] = deps.Spec{Data: d.Data, Type: d.Type, Weak: d.Weak, Ivs: d.Ivs}
	}
	c.mu.Lock()
	c.tasks = append(c.tasks, capturedTask{submitter: submitter, submit: submit, weakWait: spec.WeakWait, specs: specs})
	c.mu.Unlock()
}

// ----------------------------------------------------------- analysis

// repTrace is what one traced rep's spans reduce to.
type repTrace struct {
	spans []span // all workers' spans, sorted by id

	self []int64 // per span: duration minus its synchronous children

	submitNs, taskwaitNs     []float64 // per-call durations
	graphUs                  []float64 // per-call durations, in program order
	readyToRunUs             []float64 // Submit return → body start, dependency-free tasks
	wsRegionUs               []float64 // first chunk start → last chunk end, per region
	submitBusyMs, bodyBusyMs float64
	taskwaitBlockedMs        float64
	migratedShare            float64 // bodies that ran on another worker than their submitter's
	workerImbalance          float64 // max / mean of per-worker body self time
}

func (x *tracer) collect() *repTrace {
	r := &repTrace{}
	for i := range x.w {
		r.spans = append(r.spans, x.w[i].spans...)
	}
	slices.SortFunc(r.spans, func(a, b span) int { return cmp.Compare(a.id, b.id) })
	find := func(id uint64) int {
		i, ok := slices.BinarySearchFunc(r.spans, id, func(s span, id uint64) int { return cmp.Compare(s.id, id) })
		if !ok {
			return -1
		}
		return i
	}

	r.self = make([]int64, len(r.spans))
	for i := range r.spans {
		r.self[i] = r.spans[i].dur()
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.kind.synchronous() && s.parent != 0 {
			if p := find(s.parent); p >= 0 {
				r.self[p] -= s.dur()
			}
		}
	}

	busy := make([]float64, len(x.w))
	var bodies, migrated int
	type bounds struct{ first, last int64 }
	regions := map[uint64]*bounds{}
	var graphs []*span
	for i := range r.spans {
		s := &r.spans[i]
		switch s.kind {
		case kSubmit:
			r.submitNs = append(r.submitNs, float64(s.dur()))
			r.submitBusyMs += float64(s.dur()) / 1e6
		case kTaskwait:
			r.taskwaitNs = append(r.taskwaitNs, float64(s.dur()))
			r.taskwaitBlockedMs += float64(s.dur()) / 1e6
		case kGraph:
			graphs = append(graphs, s)
		case kBody:
			r.bodyBusyMs += float64(r.self[i]) / 1e6
			busy[s.worker] += float64(r.self[i])
			c := find(s.parent)
			if c < 0 {
				break // the root body
			}
			cause := &r.spans[c]
			bodies++
			if cause.worker != s.worker {
				migrated++
			}
			if cause.noDeps {
				r.readyToRunUs = append(r.readyToRunUs, float64(max(0, s.start-cause.end))/1e3)
			}
		case kChunk:
			r.bodyBusyMs += float64(r.self[i]) / 1e6
			busy[s.worker] += float64(r.self[i])
			b := regions[s.parent]
			if b == nil {
				b = &bounds{first: s.start, last: s.end}
				regions[s.parent] = b
			}
			b.first, b.last = min(b.first, s.start), max(b.last, s.end)
		}
	}
	// Span ids order by worker, and a region's owner changes worker at its
	// barrier: put the Graph calls back in program order.
	slices.SortFunc(graphs, func(a, b *span) int { return cmp.Compare(a.start, b.start) })
	for _, g := range graphs {
		r.graphUs = append(r.graphUs, float64(g.dur())/1e3)
	}
	for _, b := range regions {
		r.wsRegionUs = append(r.wsRegionUs, float64(b.last-b.first)/1e3)
	}
	if bodies > 0 {
		r.migratedShare = float64(migrated) / float64(bodies)
	}
	if total := sum(busy); total > 0 {
		r.workerImbalance = slices.Max(busy) / (total / float64(len(busy)))
	}
	return r
}

// checkSelfTimes reports the first span whose self time is negative or
// exceeds its duration (neither can happen if children nest in parents).
func (r *repTrace) checkSelfTimes() error {
	for i := range r.spans {
		if r.self[i] < 0 || r.self[i] > r.spans[i].dur() {
			return fmt.Errorf("%s span %#x: self %d ns, span %d ns", kindNames[r.spans[i].kind], r.spans[i].id, r.self[i], r.spans[i].dur())
		}
	}
	return nil
}

// writeChrome writes the rep's spans in the Chrome trace-event format (one
// complete event per span; tid = worker, args carry the span ids).
func (r *repTrace) writeChrome(path, workload string, rep int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q,\"rep\":%d},\"traceEvents\":[\n", workload, rep)
	for i := range r.spans {
		s := &r.spans[i]
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rep\":%d,\"self_ns\":%d}}%s\n",
			kindNames[s.kind], s.worker, float64(s.start)/1e3, float64(s.dur())/1e3, s.id, s.parent, rep, r.self[i], sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
