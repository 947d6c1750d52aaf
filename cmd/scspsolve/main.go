// Command scspsolve solves a Soft Constraint Satisfaction Problem
// described in the scspfile format (see internal/scspfile) and prints
// the best level of consistency, the optimal solutions over the
// variables of interest, and solver statistics.
//
// Usage:
//
//	scspsolve [-solver bb|exhaustive|ve|ls] [-seed N] [-propagate] problem.scsp
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"softsoa/internal/core"
	"softsoa/internal/scspfile"
	"softsoa/internal/solver"
)

func main() {
	solverName := flag.String("solver", "bb",
		"solver: bb (branch and bound), exhaustive, ve (variable elimination), ls (local search)")
	seed := flag.Int64("seed", 1, "seed for local search")
	propagate := flag.Bool("propagate", false,
		"preprocess with soft arc/node-consistency propagation (equivalence-preserving)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: scspsolve [-solver bb|exhaustive|ve|ls] [-seed N] [-propagate] problem.scsp")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatalf("scspsolve: %v", err)
	}
	prob, err := scspfile.Parse(string(src))
	if err != nil {
		log.Fatalf("scspsolve: %v", err)
	}

	target := prob.Scsp
	if *propagate {
		propagated, czero, stats := solver.Propagate(target, 0)
		target = propagated
		fmt.Printf("propagation: c∅ = %s after %d rounds, %d shifts\n",
			prob.Scsp.Space().Semiring().Format(czero), stats.Rounds, stats.Shifts)
	}

	var res solver.Result[float64]
	switch *solverName {
	case "bb":
		res = solver.BranchAndBound(target)
	case "exhaustive":
		res = solver.Exhaustive(target)
	case "ve":
		res = solver.Eliminate(target)
	case "ls":
		res = solver.LocalSearch(target, solver.WithSeed(*seed))
	default:
		log.Fatalf("scspsolve: unknown solver %q", *solverName)
	}

	sr := prob.Scsp.Space().Semiring()
	fmt.Printf("problem:   %s\n", prob.Scsp)
	fmt.Printf("solver:    %s\n", *solverName)
	fmt.Printf("blevel:    %s\n", sr.Format(res.Blevel))
	if *solverName == "ls" {
		fmt.Println("           (local search: lower bound, not guaranteed optimal)")
	}
	fmt.Printf("solutions: %d\n", len(res.Best))
	con := prob.Scsp.Con()
	for _, s := range res.Best {
		fmt.Printf("  %s → %s\n", formatAssignment(s.Assignment, con), sr.Format(s.Value))
	}
	fmt.Printf("stats:     %d nodes, %d prunes, %d tables, %s\n",
		res.Stats.Nodes, res.Stats.Prunes, res.Stats.TablesBuilt, res.Stats.Elapsed.Round(1000))
}

func formatAssignment(a core.Assignment, con []core.Variable) string {
	vars := make([]string, 0, len(a))
	conSet := map[core.Variable]bool{}
	for _, v := range con {
		conSet[v] = true
	}
	for v := range a {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	parts := make([]string, 0, len(vars))
	for _, v := range vars {
		// Print con variables first-class; others only if assigned.
		if len(conSet) > 0 && !conSet[core.Variable(v)] && len(a) > len(con) {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", v, a.Label(core.Variable(v))))
	}
	return strings.Join(parts, " ")
}
