package main

import (
	"io"
	"testing"
)

// TestRun runs the example end to end; run fails when what it prints is
// wrong.
func TestRun(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
