package main

import (
	"io"
	"testing"
)

// TestRun factorizes and validates every variant; -short shrinks the
// matrix to 8×8 blocks of 16×16.
func TestRun(t *testing.T) {
	p := params
	if testing.Short() {
		p.B, p.TS = 8, 16
	}
	if err := run(io.Discard, p); err != nil {
		t.Fatal(err)
	}
}
