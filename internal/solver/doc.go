// Package solver implements complete and heuristic solvers for Soft
// Constraint Satisfaction Problems: an exhaustive reference solver, a
// depth-first branch and bound with semiring upper-bound pruning
// (sequential or spread over a work-stealing worker pool), a bucket
// (variable) elimination solver, and a random-restart local search
// for problems too large for complete methods. The broker of Sec. 4
// of the paper hosts such a solver to negotiate QoS; these are the
// engines behind it.
//
// # Solvers
//
//   - Exhaustive:     enumerate every complete assignment (reference)
//   - BranchAndBound: depth-first search with semiring bound pruning,
//     sequential or parallel
//   - Eliminate:      bucket (variable) elimination
//   - LocalSearch:    random-restart hill climbing (incomplete)
//
// # Options
//
// All solvers take the same variadic Option type and ignore options
// that do not apply to them. The knobs group as follows.
//
// Search shaping (BranchAndBound):
//
//   - WithoutPruning:     disable the bound test (exhaustive DFS; ablation)
//   - WithDegreeOrdering: assign most-constrained variables first
//   - WithLookahead:      strengthen the bound with optimistic completion
//   - WithMaxBest:        cap retained co-optimal solutions (default 16)
//
// Parallel execution (BranchAndBound):
//
//   - WithWorkers: n work-stealing workers, 0 = runtime.GOMAXPROCS(0),
//     1 = the sequential path with zero scheduling machinery
//
// Blevel and the solution frontier are identical under any worker
// count — bit-identical for totally ordered semirings, and for
// partially ordered ones whenever the WithMaxBest cap does not bind;
// only the Stats counters depend on scheduling. See WithWorkers.
//
// Preprocessing (BranchAndBound):
//
//   - WithPropagation: seed the search with soft arc/node-consistency
//     (c∅ root bound + tightened unary tables)
//
// NodeBound computes the c∅ of one propagation round over unary and
// zero-arity constraints without rewriting the problem; the broker's
// negotiator prechecks every provider with it.
//
// Local search (LocalSearch):
//
//   - WithRestarts: number of random restarts (default 8)
//   - WithSteps:    hill-climbing step budget per restart (default 400)
//   - WithSeed:     seed for the restart randomness (deterministic per seed)
//
// Instrumentation (all solvers):
//
//   - WithClock: inject the time source behind Stats.Elapsed
//
// Options are applied in order, later options overriding earlier
// ones; the zero configuration (sequential, pruning on, MaxBest 16)
// is always valid.
package solver
