// Command taskgraph emits the dependency graphs of the paper's Figures 1
// and 2 as Graphviz DOT, captured live from the runtime executing the
// programs of listings 1 and 3.
//
// Usage:
//
//	taskgraph -fig 1a   # listing 1, two levels, strong deps (Figure 1a)
//	taskgraph -fig 1b   # listing 1 flattened (Figure 1b)
//	taskgraph -fig 2a   # listing 3, outer tasks only (Figure 2a)
//	taskgraph -fig 2b   # listing 3 with inbound weak links (Figure 2b)
//	taskgraph -fig 2c   # the flat-equivalent graph after weakwait release
//
// Figure 2c shows the graph the runtime's execution is ordering-equivalent
// to after the outer tasks exit (fine-grained release merges every inner
// domain into the root domain); the equivalence itself is asserted by the
// runtime's tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graphdump"
)

func main() {
	fig := flag.String("fig", "2b", "figure to emit: 1a, 1b, 2a, 2b or 2c")
	flag.Parse()

	dot, ok := graphdump.Figure(*fig)
	if !ok {
		fmt.Fprintf(os.Stderr, "taskgraph: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	fmt.Print(dot)
}
