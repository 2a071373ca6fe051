package graphdump

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureGoldens pins every figure byte for byte: the DOT text of each
// Figure must equal its file under testdata, so a change of runtime that
// adds, drops or reorders an edge fails here even where the edge-subset
// tests below still pass. Regenerate a golden only for an intended change
// of a figure: go run ./cmd/taskgraph -fig X > internal/graphdump/testdata/figure-X.dot.
func TestFigureGoldens(t *testing.T) {
	for _, name := range Figures {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "figure-"+name+".dot"))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := Figure(name)
			if !ok {
				t.Fatalf("Figure(%q) unknown", name)
			}
			if got != string(want) {
				t.Errorf("figure %s differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
			}
		})
	}
	if _, ok := Figure("3"); ok {
		t.Error(`Figure("3") rendered a figure the paper does not have`)
	}
}

// TestFigure1Edges: the nested strong graph must contain exactly the
// outer-task edges the paper draws in Figure 1a.
func TestFigure1Edges(t *testing.T) {
	c, _ := Listing1Nested()
	want := [][2]string{
		{"T1", "T2"}, // a, b
		{"T1", "T3"}, // a, b
		{"T2", "T3"}, // d
		{"T2", "T4"}, // c, d
		{"T3", "T4"}, // e, f
	}
	for _, w := range want {
		if !c.HasEdge(w[0], w[1]) {
			t.Errorf("missing edge %s → %s", w[0], w[1])
		}
	}
	// Readers don't depend on readers: no T3→T2 or reversed edges.
	for _, bad := range [][2]string{{"T2", "T1"}, {"T3", "T2"}, {"T4", "T1"}} {
		if c.HasEdge(bad[0], bad[1]) {
			t.Errorf("unexpected edge %s → %s", bad[0], bad[1])
		}
	}
}

// TestFigure1FlatEdges: the flat graph of Figure 1b.
func TestFigure1FlatEdges(t *testing.T) {
	c, _ := Listing1Flat()
	want := [][2]string{
		{"T1.1", "T2.1"}, // a
		{"T1.1", "T3.1"}, // a
		{"T1.2", "T2.2"}, // b
		{"T1.2", "T3.2"}, // b
		{"T2.2", "T3.1"}, // d
		{"T2.1", "T4.1"}, // c
		{"T3.1", "T4.1"}, // e
		{"T2.2", "T4.2"}, // d
		{"T3.2", "T4.2"}, // f
	}
	for _, w := range want {
		if !c.HasEdge(w[0], w[1]) {
			t.Errorf("missing edge %s → %s", w[0], w[1])
		}
	}
	if c.HasEdge("T1.1", "T2.2") || c.HasEdge("T1.2", "T2.1") {
		t.Error("cross-variable edges must not exist")
	}
}

// TestFigure2WeakGraph: listing 3's capture must show (a) the outer tasks
// with weak links only among themselves, and (b) inbound (dashed) edges
// from the weak parents into their subtasks.
func TestFigure2WeakGraph(t *testing.T) {
	c, _ := Listing3Weak()

	// Figure 2a: outer-level links exist (they are weak: recorded as
	// normal domain links, but none defers execution — that part is
	// covered by the runtime tests).
	outer := c.OuterOnly()
	hasOuter := func(p, s string) bool {
		for _, e := range outer {
			if e.Pred == p && e.Succ == s {
				return true
			}
		}
		return false
	}
	for _, w := range [][2]string{{"T1", "T2"}, {"T1", "T3"}, {"T2", "T3"}, {"T2", "T4"}, {"T3", "T4"}} {
		if !hasOuter(w[0], w[1]) {
			t.Errorf("missing outer link %s → %s (Figure 2a)", w[0], w[1])
		}
	}

	// Figure 2b: inner tasks inherit pending dependencies through the weak
	// parent accesses — inbound edges parent → child.
	inbound := map[[2]string]bool{}
	for _, e := range c.Edges() {
		if e.Inbound {
			inbound[[2]string{e.Pred, e.Succ}] = true
		}
	}
	for _, w := range [][2]string{{"T2", "T2.1"}, {"T2", "T2.2"}, {"T3", "T3.1"}, {"T3", "T3.2"}, {"T4", "T4.1"}, {"T4", "T4.2"}} {
		if !inbound[w] {
			t.Errorf("missing inbound link %s → %s (Figure 2b)", w[0], w[1])
		}
	}
	// T1's children must NOT have inbound links: T1's accesses are strong
	// and satisfied when the children are created.
	if inbound[[2]string{"T1", "T1.1"}] || inbound[[2]string{"T1", "T1.2"}] {
		t.Error("T1's children must not wait on T1 (strong parent access)")
	}
}

// TestDOTRender: the DOT output contains clusters, nodes and styled edges.
func TestDOTRender(t *testing.T) {
	c, vars := Listing3Weak()
	dot := c.DOT("fig2b", vars)
	for _, want := range []string{
		"digraph", "subgraph \"cluster_T1\"", "\"T1.1\"",
		"style=dashed", "style=solid", "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// TestDOTFlat: flat graphs have no clusters.
func TestDOTFlat(t *testing.T) {
	c, vars := Listing1Flat()
	dot := c.DOT("fig1b", vars)
	if strings.Contains(dot, "cluster") {
		t.Error("flat graph should have no clusters")
	}
	if !strings.Contains(dot, "\"T1.1\" -> \"T2.1\"") {
		t.Errorf("missing flat edge in DOT:\n%s", dot)
	}
}

// TestCaptureReleaseEvents: releases are recorded (used by tooling).
func TestCaptureReleaseEvents(t *testing.T) {
	c, _ := Listing1Flat()
	c.mu.Lock()
	n := len(c.released)
	c.mu.Unlock()
	if n == 0 {
		t.Fatal("no release events captured")
	}
}
