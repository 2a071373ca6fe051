package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestTable1(t *testing.T) {
	var b bytes.Buffer
	Table1(&b)
	out := b.String()
	for _, v := range workloads.AxpyVariants {
		if !strings.Contains(out, string(v)) {
			t.Fatalf("Table I missing variant %s:\n%s", v, out)
		}
	}
	for _, want := range []string{"weakwait", "taskwait", "release directive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	var b bytes.Buffer
	if err := Fig3(&b, Options{Quick: true, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 3 (top)") || !strings.Contains(out, "Figure 3 (bottom)") {
		t.Fatalf("missing panels:\n%s", out)
	}
	if !strings.Contains(out, "nest-weak-release") {
		t.Fatalf("missing variant column:\n%s", out)
	}
}

func TestFig4Quick(t *testing.T) {
	var b bytes.Buffer
	if err := Fig4(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 4") {
		t.Fatalf("missing figure header:\n%s", b.String())
	}
}

func TestFig5Quick(t *testing.T) {
	var b bytes.Buffer
	if err := Fig5(&b, Options{Quick: true, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Gauss-Seidel") {
		t.Fatalf("missing figure:\n%s", b.String())
	}
}

func TestFig6Quick(t *testing.T) {
	var b bytes.Buffer
	if err := Fig6(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "Figure 6") != 2 {
		t.Fatalf("expected two panels (two tile sizes):\n%s", out)
	}
}

func TestFig7Quick(t *testing.T) {
	var b bytes.Buffer
	if err := Fig7(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "Figure 7") != 2 {
		t.Fatalf("expected both variants:\n%s", out)
	}
	if !strings.Contains(out, "phase overlap") || !strings.Contains(out, "=idle") {
		t.Fatalf("missing timeline or overlap metric:\n%s", out)
	}
}

// TestExportFig7Quick: the trace export behind reproduce -chrome/-prv
// hands over one tracer per sort variant, whose Chrome output is a valid
// event array covering both algorithm phases and whose PRV output carries
// the Paraver header.
func TestExportFig7Quick(t *testing.T) {
	var got []string
	err := ExportFig7(Options{Quick: true}, func(variant string, tr *trace.Tracer) error {
		got = append(got, variant)
		var chrome bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			return err
		}
		var events []trace.ChromeEvent
		if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
			t.Fatalf("%s: Chrome output does not unmarshal: %v", variant, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: Chrome output has no events", variant)
		}
		kinds := map[string]bool{}
		for _, e := range events {
			kinds[e.Name] = true
		}
		for _, want := range []string{"quick_sort", "prefix_sum"} {
			if !kinds[want] {
				t.Errorf("%s: Chrome output has no %q event (kinds %v)", variant, want, kinds)
			}
		}
		var prv bytes.Buffer
		if err := tr.WritePRV(&prv); err != nil {
			return err
		}
		if !strings.HasPrefix(prv.String(), "#Paraver") {
			t.Errorf("%s: PRV output lacks the #Paraver header: %.40q", variant, prv.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(workloads.SortVariants) {
		t.Fatalf("exported variants %v, want one per %v", got, workloads.SortVariants)
	}
	for i, v := range workloads.SortVariants {
		if got[i] != string(v) {
			t.Errorf("variant %d exported as %q, want %q", i, got[i], v)
		}
	}
}

// TestFig6ShapeQuick: even at smoke-test sizes, the weak variants must
// reach at least the effective parallelism of nest-depend at the largest
// core count (the Figure 6 separation).
func TestFig6ShapeQuick(t *testing.T) {
	n, ts, iters := int64(256), int64(32), 4
	weak, err := workloads.RunGS(workloads.Mode{Workers: 8, Virtual: true}, workloads.GSNestWeak,
		workloads.GSParams{N: n, TS: ts, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := workloads.RunGS(workloads.Mode{Workers: 8, Virtual: true}, workloads.GSNestDepend,
		workloads.GSParams{N: n, TS: ts, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	if weak.EffectiveParallelism < dep.EffectiveParallelism {
		t.Fatalf("weak EP %.2f below nest-depend EP %.2f", weak.EffectiveParallelism, dep.EffectiveParallelism)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.defaults()
	if o.Scale != 1 || o.Cores <= 0 || o.Reps != 3 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	q := Options{Quick: true}.defaults()
	if q.Reps != 1 {
		t.Fatalf("quick should use 1 rep: %+v", q)
	}
}

var _ = metrics.Mean // keep the import for the helper table tests above
