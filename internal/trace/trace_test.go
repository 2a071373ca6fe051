package trace

import (
	"strings"
	"testing"
)

func TestKindRegistration(t *testing.T) {
	tr := New(2)
	a := tr.KindID("alpha")
	b := tr.KindID("beta")
	if a == b {
		t.Fatal("distinct names must get distinct kinds")
	}
	if tr.KindID("alpha") != a {
		t.Fatal("re-registration must return the same kind")
	}
	if tr.KindName(a) != "alpha" || tr.KindName(b) != "beta" {
		t.Fatal("KindName mismatch")
	}
}

func TestBusyAndExtent(t *testing.T) {
	tr := New(2)
	k := tr.KindID("k")
	tr.Record(0, k, 10, 20)
	tr.Record(1, k, 15, 40)
	if tr.BusyTime() != 35 {
		t.Fatalf("BusyTime = %d, want 35", tr.BusyTime())
	}
	lo, hi := tr.Extent()
	if lo != 10 || hi != 40 {
		t.Fatalf("Extent = %d,%d", lo, hi)
	}
	ep := tr.EffectiveParallelism(0)
	if ep < 1.16 || ep > 1.17 { // 35/30
		t.Fatalf("EffectiveParallelism = %f", ep)
	}
}

// TestBusyTimeNestedSpans: spans nested on one worker (a task run inline
// inside its waiting ancestor's span, recorded first because it ends first)
// count once, overlapping ones by their union, and a gap is not busy — so
// a fully busy worker never reports more than the wall time.
func TestBusyTimeNestedSpans(t *testing.T) {
	tr := New(2)
	k := tr.KindID("k")
	tr.Record(0, k, 20, 30) // inline child
	tr.Record(0, k, 40, 50) // inline child
	tr.Record(0, k, 10, 60) // the waiter around both
	tr.Record(0, k, 55, 70) // overlaps the waiter's tail
	tr.Record(0, k, 80, 90) // after a gap
	tr.Record(1, k, 0, 100)
	if got := tr.BusyTime(); got != 70+100 {
		t.Fatalf("BusyTime = %d, want 170 (60 + 10 on worker 0, 100 on worker 1)", got)
	}
	if ep := tr.EffectiveParallelism(100); ep > 2 {
		t.Fatalf("EffectiveParallelism = %f exceeds the worker count", ep)
	}
}

func TestEffectiveParallelismFullWidth(t *testing.T) {
	tr := New(4)
	k := tr.KindID("k")
	for w := 0; w < 4; w++ {
		tr.Record(w, k, 0, 100)
	}
	if ep := tr.EffectiveParallelism(100); ep != 4 {
		t.Fatalf("EffectiveParallelism = %f, want 4", ep)
	}
}

func TestOverlapDisjointPhases(t *testing.T) {
	tr := New(1)
	a := tr.KindID("a")
	b := tr.KindID("b")
	tr.Record(0, a, 0, 50)
	tr.Record(0, b, 50, 100)
	if ov := tr.Overlap([]Kind{a}, []Kind{b}); ov != 0 {
		t.Fatalf("Overlap = %d, want 0", ov)
	}
}

func TestOverlapConcurrentPhases(t *testing.T) {
	tr := New(2)
	a := tr.KindID("a")
	b := tr.KindID("b")
	tr.Record(0, a, 0, 60)
	tr.Record(1, b, 40, 100)
	if ov := tr.Overlap([]Kind{a}, []Kind{b}); ov != 20 {
		t.Fatalf("Overlap = %d, want 20", ov)
	}
}

func TestOverlapMultipleSpans(t *testing.T) {
	tr := New(2)
	a := tr.KindID("a")
	b := tr.KindID("b")
	tr.Record(0, a, 0, 10)
	tr.Record(0, a, 20, 30)
	tr.Record(1, b, 5, 25)
	// Overlaps: [5,10) and [20,25) = 10.
	if ov := tr.Overlap([]Kind{a}, []Kind{b}); ov != 10 {
		t.Fatalf("Overlap = %d, want 10", ov)
	}
}

func TestRenderASCII(t *testing.T) {
	tr := New(2)
	q := tr.KindID("quick")
	p := tr.KindID("prefix")
	tr.Record(0, q, 0, 50)
	tr.Record(1, p, 50, 100)
	out := tr.RenderASCII(20)
	if !strings.Contains(out, "w00") || !strings.Contains(out, "w01") {
		t.Fatalf("missing worker rows:\n%s", out)
	}
	if !strings.Contains(out, "Q") || !strings.Contains(out, "P") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "Q=quick") || !strings.Contains(out, "P=prefix") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Worker 0 idle in second half.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], ".") {
		t.Fatalf("expected idle dots in row 0: %q", lines[0])
	}
}

func TestKindTime(t *testing.T) {
	tr := New(1)
	a := tr.KindID("a")
	b := tr.KindID("b")
	tr.Record(0, a, 0, 30)
	tr.Record(0, b, 30, 40)
	if tr.KindTime(a) != 30 || tr.KindTime(b) != 10 {
		t.Fatalf("KindTime wrong: a=%d b=%d", tr.KindTime(a), tr.KindTime(b))
	}
}

func TestSpansSorted(t *testing.T) {
	tr := New(2)
	k := tr.KindID("k")
	tr.Record(1, k, 50, 60)
	tr.Record(0, k, 10, 20)
	sp := tr.Spans()
	if len(sp) != 2 || sp[0].Start != 10 {
		t.Fatalf("spans not sorted: %+v", sp)
	}
}

func TestRecordOutOfRangeWorkerIgnored(t *testing.T) {
	tr := New(1)
	tr.Record(5, 0, 0, 10)
	tr.Record(-1, 0, 0, 10)
	if tr.BusyTime() != 0 {
		t.Fatal("out-of-range workers must be ignored")
	}
}
