package core

// Evaluator provides fast evaluation of a fixed set of constraints
// against complete assignments represented as digit vectors: digits[i]
// is the index into the domain of the i-th declared variable. It
// precomputes per-constraint strides so evaluation is a handful of
// integer multiply-adds, which is what search solvers need in their
// inner loop.
type Evaluator[T any] struct {
	space       *Space[T]
	constraints []*Constraint[T]
	// scopeVars[k][j] is the space-wide variable index of the j-th
	// scope variable of constraint k; strides[k][j] its table stride.
	scopeVars [][]int
	strides   [][]int
	// tables[k] is constraint k's flat value table, shared with the
	// constraint.
	tables [][]T
}

// NewEvaluator builds an evaluator for the given constraints, which
// must all belong to space s.
func NewEvaluator[T any](s *Space[T], cs []*Constraint[T]) *Evaluator[T] {
	e := &Evaluator[T]{
		space:       s,
		constraints: append([]*Constraint[T](nil), cs...),
		scopeVars:   make([][]int, len(cs)),
		strides:     make([][]int, len(cs)),
		tables:      make([][]T, len(cs)),
	}
	for k, c := range cs {
		if c.space != s {
			panic("core: evaluator constraint from different space")
		}
		// Constraints precompute their strides at construction; share
		// them (both sides treat scope, stride and table as immutable).
		e.scopeVars[k] = c.scope
		e.strides[k] = c.stride
		e.tables[k] = c.table
	}
	return e
}

// NumConstraints returns the number of constraints evaluated.
func (e *Evaluator[T]) NumConstraints() int { return len(e.constraints) }

// MaxScopeVar returns, for constraint k, the largest space-wide
// variable index in its scope (-1 for constant constraints). A
// constraint is fully decided once variables 0..MaxScopeVar(k) are
// assigned, which branch-and-bound uses to fold values in as early as
// possible.
func (e *Evaluator[T]) MaxScopeVar(k int) int {
	vars := e.scopeVars[k]
	if len(vars) == 0 {
		return -1
	}
	return vars[len(vars)-1]
}

// Eval returns the value of constraint k under the digit vector,
// which must cover at least the constraint's scope variables.
//
//softsoa:hotpath
func (e *Evaluator[T]) Eval(k int, digits []int) T {
	idx := 0
	for j, vi := range e.scopeVars[k] {
		idx += digits[vi] * e.strides[k][j]
	}
	return e.tables[k][idx]
}

// EvalAll returns the semiring product of all constraint values under
// the complete digit vector.
//
//softsoa:hotpath
func (e *Evaluator[T]) EvalAll(digits []int) T {
	acc := e.space.sr.One()
	for k := range e.constraints {
		acc = e.space.sr.Times(acc, e.Eval(k, digits))
	}
	return acc
}

// DomainSizes returns the domain size of each declared variable, in
// declaration order.
func (e *Evaluator[T]) DomainSizes() []int {
	out := make([]int, len(e.space.names))
	for i := range out {
		out[i] = e.space.domainSize(i)
	}
	return out
}

// Assignment converts a digit vector into an Assignment over all
// declared variables.
func (e *Evaluator[T]) Assignment(digits []int) Assignment {
	a := make(Assignment, len(digits))
	for i, d := range digits {
		a[e.space.names[i]] = e.space.domains[i][d]
	}
	return a
}
