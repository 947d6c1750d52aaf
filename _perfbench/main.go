// Command perfbench is the repository's benchmark: it runs one named
// workload against a freshly booted brokerd in its production
// configuration and prints every metric with its unit, ending with a
// one-line JSON result. See README.md for the workloads and metrics,
// and run.sh for the build.
//
// Usage:
//
//	perfbench --workload sla-steady|negotiate-cold|compose-cold \
//	          --seed N --seconds S --trace 0|1
package main

import (
	"os"

	"softsoa/perfbench/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr)) }
