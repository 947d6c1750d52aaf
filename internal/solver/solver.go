package solver

import (
	"sort"
	"time"

	"softsoa/internal/clock"
	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

// Stats records the work a solver performed.
type Stats struct {
	// Nodes is the number of search nodes expanded (assignments tried
	// for exhaustive/local search; partial assignments for B&B).
	Nodes int64
	// Prunes is the number of subtrees cut by the bound (B&B only).
	Prunes int64
	// TablesBuilt is the number of intermediate constraint tables
	// materialised (variable elimination only).
	TablesBuilt int64
	// Elapsed is the wall-clock solving time.
	Elapsed time.Duration
}

// Solution is one complete assignment with its combined value.
type Solution[T any] struct {
	Assignment core.Assignment
	Value      T
}

// Result is the outcome of a solve.
type Result[T any] struct {
	// Blevel is the best level of consistency: the least upper bound
	// of the combined value over all complete assignments. For
	// totally ordered semirings it is attained by Best; for partial
	// (product) orders it may be an unattained ideal point.
	Blevel T
	// Best holds the non-dominated solutions found. Complete solvers
	// return the full frontier (all optimal assignments for total
	// orders); local search returns the best incumbents seen.
	Best []Solution[T]
	// Stats records the solver's work.
	Stats Stats
}

// Option configures a solver run.
type Option func(*config)

type config struct {
	prune      bool
	lookahead  bool
	degree     bool
	maxBest    int
	propagate  bool
	propRounds int
	restarts   int
	steps      int
	seed       int64
	clock      clock.Clock
}

func defaultConfig() config {
	return config{prune: true, maxBest: 16, restarts: 8, steps: 400, seed: 1, clock: clock.Wall}
}

// WithoutPruning disables the branch-and-bound upper bound test; the
// search degenerates to exhaustive depth-first enumeration. Used by
// the pruning ablation (experiment E10).
func WithoutPruning() Option { return func(c *config) { c.prune = false } }

// WithDegreeOrdering makes branch and bound assign the most
// constrained variables first: variables are statically ordered by
// descending constraint degree (ties by smaller domain, then
// declaration order). Constraints then become fully assigned — and
// start pruning — as early as possible.
func WithDegreeOrdering() Option { return func(c *config) { c.degree = true } }

// WithLookahead strengthens the branch-and-bound bound with a static
// optimistic completion: at each depth the partial product is
// multiplied by the precomputed least upper bound of every constraint
// not yet fully assigned. Since each constraint's eventual value is
// ≤ its lub and × is monotone, the product remains a sound upper
// bound, so pruning stays exact while firing earlier.
func WithLookahead() Option { return func(c *config) { c.lookahead = true } }

// WithMaxBest caps how many co-optimal solutions are retained
// (default 16). The blevel is exact regardless.
func WithMaxBest(n int) Option { return func(c *config) { c.maxBest = n } }

// WithPropagation runs Propagate for up to maxRounds sweeps (0 means
// the default cap) before branch and bound: the zero-arity c∅ bound
// folds into the root and the tightened unary tables fold in at their
// variable's depth, seeding pruning before the first incumbent is
// found. For invertible semirings the rewrite is equivalence-
// preserving, so results are unchanged; with floating-point carriers
// whose × rounds (e.g. probabilistic) the propagated leaf values can
// drift from the originals by ulps — callers needing bit-exact scores
// should leave it off. Weighted and fuzzy carriers are exact: their
// Plus/Times/Div are min/max or integer-valued sums in practice.
func WithPropagation(maxRounds int) Option {
	return func(c *config) {
		c.propagate = true
		c.propRounds = maxRounds
	}
}

// WithRestarts sets the number of random restarts for local search.
func WithRestarts(n int) Option { return func(c *config) { c.restarts = n } }

// WithSteps sets the hill-climbing step budget per restart.
func WithSteps(n int) Option { return func(c *config) { c.steps = n } }

// WithSeed seeds local search's randomness; runs are deterministic
// given a seed.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithClock injects the time source behind Stats.Elapsed (default the
// wall clock). Solvers read no other clock: given the same seed the
// search itself is deterministic, and with a nil Clock the timing is
// a strict no-op.
func WithClock(c clock.Clock) Option { return func(cf *config) { cf.clock = c } }

// Exhaustive enumerates every complete assignment and returns the
// exact blevel and the frontier of non-dominated solutions. It is the
// reference against which the other solvers are tested.
func Exhaustive[T any](p *core.Problem[T], opts ...Option) Result[T] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	start := cfg.clock.Now()
	s := p.Space()
	sr := s.Semiring()
	ev := core.NewEvaluator(s, p.Constraints())
	sizes := ev.DomainSizes()
	digits := make([]int, len(sizes))
	res := Result[T]{Blevel: sr.Zero()}
	fr := newDigitFrontier[T](sr, cfg.maxBest)
	for done := false; !done; {
		res.Stats.Nodes++
		v := ev.EvalAll(digits)
		res.Blevel = sr.Plus(res.Blevel, v)
		fr.offer(digits, v)
		done = !next(digits, sizes)
	}
	res.Best = fr.solutions(ev)
	res.Stats.Elapsed = cfg.clock.Since(start)
	return res
}

// BranchAndBound performs depth-first search over the variables in
// declaration order, folding in each constraint's value as soon as
// its scope is fully assigned. Because × is intensive (combining can
// only worsen), the partial product is a sound upper bound: when it
// is dominated by an incumbent the subtree is pruned. With partially
// ordered semirings a node is pruned only when some incumbent
// strictly dominates its bound, which remains sound for the frontier.
// The inner loop works on digit vectors through the evaluator's
// stride-indexed tables and allocates nothing per node.
func BranchAndBound[T any](p *core.Problem[T], opts ...Option) Result[T] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	start := cfg.clock.Now()
	prob := p
	if cfg.propagate {
		prob, _, _ = Propagate(p, cfg.propRounds)
	}
	res := solvePlan(newPlan(prob, &cfg))
	res.Stats.Elapsed = cfg.clock.Since(start)
	return res
}

// plan holds the static artifacts of a branch-and-bound run — the
// variable ordering, the constraint folding schedule, the lookahead
// products and the root bound — read-only during the search.
type plan[T any] struct {
	sr    semiring.Semiring[T]
	ev    *core.Evaluator[T]
	sizes []int
	n     int
	// perm[d] is the space variable assigned at depth d; the default
	// is declaration order, WithDegreeOrdering sorts by descending
	// constraint degree (ties by smaller domain, then declaration).
	perm []int
	// byDepth[d] lists the constraints that become fully assigned
	// when the variable at depth d-1 of the ordering gets a value;
	// byDepth[0] holds the constants, folded into the root bound.
	byDepth [][]int
	// optimisticRest[d] is the product of the least upper bounds of
	// every constraint that only becomes fully assigned at depth > d:
	// an optimistic completion factor for the lookahead bound.
	optimisticRest []T
	rootBound      T
	prune          bool
	lookahead      bool
	maxBest        int
}

func newPlan[T any](p *core.Problem[T], cfg *config) *plan[T] {
	s := p.Space()
	sr := s.Semiring()
	cs := p.Constraints()
	ev := core.NewEvaluator(s, cs)
	sizes := ev.DomainSizes()
	n := len(sizes)
	pl := &plan[T]{
		sr: sr, ev: ev, sizes: sizes, n: n,
		prune: cfg.prune, lookahead: cfg.lookahead, maxBest: cfg.maxBest,
	}

	pl.perm = make([]int, n)
	for i := range pl.perm {
		pl.perm[i] = i
	}
	if cfg.degree {
		degree := make([]int, n)
		for _, c := range cs {
			for _, v := range c.Scope() {
				for i, name := range s.Variables() {
					if name == v {
						degree[i]++
					}
				}
			}
		}
		sort.SliceStable(pl.perm, func(a, b int) bool {
			va, vb := pl.perm[a], pl.perm[b]
			if degree[va] != degree[vb] {
				return degree[va] > degree[vb]
			}
			return sizes[va] < sizes[vb]
		})
	}
	posOf := make([]int, n)
	for d, vi := range pl.perm {
		posOf[vi] = d
	}

	pl.byDepth = make([][]int, n+1)
	for k := 0; k < ev.NumConstraints(); k++ {
		last := -1
		for _, v := range cs[k].Scope() {
			for i, name := range s.Variables() {
				if name == v && posOf[i] > last {
					last = posOf[i]
				}
			}
		}
		if last < 0 {
			pl.byDepth[0] = append(pl.byDepth[0], k) // constants fold at the root
		} else {
			pl.byDepth[last+1] = append(pl.byDepth[last+1], k)
		}
	}

	pl.optimisticRest = make([]T, n+1)
	pl.optimisticRest[n] = sr.One()
	if cfg.lookahead {
		lubs := make([]T, ev.NumConstraints())
		for k := range lubs {
			lub := sr.Zero()
			cs[k].ForEach(func(_ core.Assignment, v T) { lub = sr.Plus(lub, v) })
			lubs[k] = lub
		}
		for d := n - 1; d >= 0; d-- {
			acc := pl.optimisticRest[d+1]
			for _, k := range pl.byDepth[d+1] {
				acc = sr.Times(acc, lubs[k])
			}
			pl.optimisticRest[d] = acc
		}
	}

	pl.rootBound = sr.One()
	for _, k := range pl.byDepth[0] {
		pl.rootBound = sr.Times(pl.rootBound, ev.Eval(k, nil))
	}
	return pl
}

// bbSearch is the depth-first searcher: its digit vector, capped
// frontier and counters.
type bbSearch[T any] struct {
	pl     *plan[T]
	digits []int
	fr     *digitFrontier[T]
	blevel T
	nodes  int64
	prunes int64
}

func newSearch[T any](pl *plan[T], fr *digitFrontier[T]) *bbSearch[T] {
	return &bbSearch[T]{pl: pl, digits: make([]int, pl.n), fr: fr, blevel: pl.sr.Zero()}
}

// run explores the subtree rooted at depth under the given sound
// upper bound. The steady-state path allocates nothing: the digit
// vector is in place, constraint values come from stride-indexed
// tables, and the frontier recycles displaced snapshot buffers.
//
//softsoa:hotpath
func (s *bbSearch[T]) run(depth int, bound T) {
	pl := s.pl
	s.nodes++
	if pl.prune {
		ub := bound
		if pl.lookahead {
			ub = pl.sr.Times(bound, pl.optimisticRest[depth])
		}
		if s.fr.dominates(ub) {
			s.prunes++
			return
		}
	}
	if depth == pl.n {
		s.blevel = pl.sr.Plus(s.blevel, bound)
		s.fr.offer(s.digits, bound)
		return
	}
	vi := pl.perm[depth]
	for d := 0; d < pl.sizes[vi]; d++ {
		s.digits[vi] = d
		b := bound
		for _, k := range pl.byDepth[depth+1] {
			b = pl.sr.Times(b, pl.ev.Eval(k, s.digits))
		}
		s.run(depth+1, b)
	}
}

func solvePlan[T any](pl *plan[T]) Result[T] {
	res := Result[T]{Blevel: pl.sr.Zero()}
	fr := newDigitFrontier[T](pl.sr, pl.maxBest)
	if pl.n == 0 {
		res.Blevel = pl.rootBound
		fr.offer(nil, pl.rootBound)
		res.Best = fr.solutions(pl.ev)
		return res
	}
	s := newSearch(pl, fr)
	s.run(0, pl.rootBound)
	res.Blevel = s.blevel
	res.Stats.Nodes = s.nodes
	res.Stats.Prunes = s.prunes
	res.Best = fr.solutions(pl.ev)
	return res
}

// next advances digits as a mixed-radix odometer; it reports false
// when the odometer wraps (enumeration complete).
func next(digits, sizes []int) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i]++
		if digits[i] < sizes[i] {
			return true
		}
		digits[i] = 0
	}
	return false
}
