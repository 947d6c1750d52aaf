// Package analysis is softsoa's in-tree static-analysis suite,
// built entirely on the standard library's go/parser, go/ast and
// go/types (loading source through the compiler's source importer, so
// it works in module mode with zero dependencies). The analyzers
// encode invariants the reproduction depends on but the compiler
// cannot check; cmd/softsoa-lint drives them over the whole module
// and `make lint` keeps the tree at zero findings.
//
// The suite has two tiers. Six intraprocedural analyzers run once per
// package (Run); four interprocedural analyzers run once over the
// whole loaded module (RunModule) with a shared static call graph, so
// they can see bugs whose halves live in different functions — or
// different packages.
//
// The intraprocedural six and the properties they protect:
//
//   - determinism: the pure layers (semiring, core, solver, sccp,
//     integrity, coalition) compute the paper's worked examples —
//     Fig. 1 blevel values, Fig. 5 consistency, Examples 1-3 — and
//     must be bit-for-bit reproducible across runs. Wall-clock reads
//     (inject a clock.Clock), draws from the global math/rand source
//     (thread a seeded *rand.Rand) and output built in map iteration
//     order are all forbidden there.
//
//   - ctxfirst: the I/O layers (broker, soa) must stay cancellable
//     end to end, the property PR 1's failover and timeout machinery
//     is built on. context.Context comes first, nobody mints a root
//     context outside main/tests, and exported functions doing
//     network I/O accept a context (HTTP handlers inherit the
//     request's).
//
//   - lockcheck: Lock/Unlock pair in the same function, and fields
//     annotated `// guarded by <mu>` are only touched with that
//     mutex held — either locked in the function or documented as a
//     caller-holds-the-lock helper. Flow-insensitive by design; it
//     exists to catch the common regression of a new code path
//     reading SLA-session or circuit-breaker state lock-free.
//
//   - errcheck: no error return is silently discarded (a deliberate
//     discard carries a //lint:ignore errcheck <reason>), and
//     fmt.Errorf wrapping an underlying error uses %w so errors.Is
//     and errors.As keep seeing through broker and solver error
//     chains.
//
//   - gohygiene: goroutines launched in the broker recover panics
//     themselves or delegate to the recovery middleware; a bare
//     goroutine panic would kill the whole daemon, bypassing the
//     protection on the request path.
//
//   - writecheck: the WAL append path preserves the durability
//     contract the crash-recovery story depends on (fsync before
//     acknowledge, no buffered writes left unflushed).
//
// The interprocedural four, built on the module call graph in
// load.go (function identity is the types.Func FullName, mutex and
// field identity the declaration position — both stable across the
// independently type-checked packages of one load):
//
//   - atomiccheck: a field or package variable accessed through
//     sync/atomic anywhere must be accessed atomically everywhere,
//     and the typed atomics (atomic.Int64, atomic.Pointer[T], ...)
//     may only be touched through their methods. A plain read beside
//     an atomic write is a torn access — the exact bug class the
//     solve cache's lock-free admission slots (cache.Admit) risk.
//
//   - lockorder: the whole-module lock-acquisition graph (edge a→b
//     when b is locked while a is held, resolved through the call
//     graph with a branch-aware held-set walk) must be acyclic. The
//     broker's documented persistMu → s.mu → e.mu order is thereby
//     machine-checked, including AB/BA inversions split across
//     functions that lockcheck's flow-insensitive view cannot see.
//
//   - leakcheck: every goroutine launched outside func main needs a
//     provable quit path — a WaitGroup join, a ctx.Done() receive, a
//     return/break out of its loop, or (for range-over-channel
//     workers) a close of that channel somewhere in the module.
//     Goroutine bodies are resolved through one level of call
//     indirection, so `go s.worker()` is checked too.
//
//   - hotpath: functions annotated //softsoa:hotpath and their
//     same-package callees (transitively) must not allocate. The
//     directive sits in the doc comment of the function it covers:
//
//     //softsoa:hotpath
//     func (c *Constraint[T]) AtIndex(digits []int) T { ... }
//
//     Flagged: make, new, composite literals, append into slices the
//     function does not own, function literals (closure allocation),
//     any use of fmt or reflect, and interface boxing of concrete
//     arguments. Exempt: allocations inside a cap()/len() grow guard
//     and self-appends (`x = append(x, ...)`), both amortised-free,
//     plus composite literals fed directly into a self-append. The
//     annotation is a package-local contract — cross-package callees
//     carry their own annotations — and turns the solver's
//     AllocsPerRun == 0 benchmark assertion into a static proof that
//     names the offending line. Applied to the B&B inner loop
//     (bbSearch.run), the Combiner scratch paths, Constraint.AtIndex
//     and Evaluator.Eval/EvalAll.
//
// Findings are suppressed inline with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above. The analyzer
// name may be "all"; the reason is mandatory, and a directive
// missing it is itself reported (analyzer "lint"). Suppressions are
// tracked: RunWithSuppressions reports which directives actually
// fired, and `softsoa-lint -debt` turns that into the
// suppression-debt report (stale directives are deletion candidates).
// Test files are deliberately not loaded: tests may use wall clocks,
// global rand and context.Background freely.
package analysis
