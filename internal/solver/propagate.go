package solver

import (
	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

// defaultPropRounds caps propagation sweeps when the caller passes
// maxRounds <= 0.
const defaultPropRounds = 16

// PropagationStats records the work of a Propagate run.
type PropagationStats struct {
	// Rounds is the number of sweeps until fixpoint (or the cap).
	Rounds int
	// Shifts counts individual cost moves (arc → unary → zero-arity).
	Shifts int64
}

// Propagate enforces soft node and arc consistency on the unary and
// binary constraints of the problem, in the style of cost-shifting
// soft-AC algorithms: for every binary constraint and every value of
// one of its variables, the best (lub) level reachable on the other
// side is divided out of the binary table (the ÷ residual) and
// multiplied into the variable's unary level; unary levels in turn
// shift their lub into a zero-arity level c∅. For invertible
// semirings — all the classical instances — the transformation is
// equivalence-preserving: c∅ ⊗ (⊗C') = ⊗C pointwise.
//
// The returned problem has the same space and variables of interest;
// c∅ is returned separately and is a sound bound on the blevel
// (blevel ≤ c∅): the "necessary cost" every complete assignment pays.
// Constraints of arity other than 1 or 2 pass through untouched.
func Propagate[T any](p *core.Problem[T], maxRounds int) (*core.Problem[T], T, PropagationStats) {
	s := p.Space()
	sr := s.Semiring()
	stats := PropagationStats{}

	type binary struct {
		ux, uy *unaryLevels[T]
		dx, dy []core.DVal
		m      [][]T // m[i][j] over dx[i], dy[j]
	}

	nf := newNodeFold(s)
	var binaries []*binary
	var passthrough []*core.Constraint[T]
	for _, c := range p.Constraints() {
		scope := c.Scope()
		switch len(scope) {
		case 0, 1:
			nf.add(c, scope)
		case 2:
			x, y := scope[0], scope[1]
			dx, dy := s.Domain(x), s.Domain(y)
			m := make([][]T, len(dx))
			for i, dvx := range dx {
				m[i] = make([]T, len(dy))
				for j, dvy := range dy {
					m[i][j] = c.AtLabels(dvx.Label, dvy.Label)
				}
			}
			binaries = append(binaries, &binary{ux: nf.unary(x), uy: nf.unary(y), dx: dx, dy: dy, m: m})
		default:
			passthrough = append(passthrough, c)
		}
	}

	if maxRounds <= 0 {
		maxRounds = defaultPropRounds
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		// Arc consistency: shift row/column lubs into unary levels.
		for _, b := range binaries {
			ux, uy := b.ux, b.uy
			for i := range b.dx {
				alpha := sr.Zero()
				for j := range b.dy {
					alpha = sr.Plus(alpha, b.m[i][j])
				}
				if !sr.Eq(alpha, sr.One()) {
					changed = true
					stats.Shifts++
					ux.levels[i] = sr.Times(ux.levels[i], alpha)
					for j := range b.dy {
						b.m[i][j] = sr.Div(b.m[i][j], alpha)
					}
				}
			}
			for j := range b.dy {
				alpha := sr.Zero()
				for i := range b.dx {
					alpha = sr.Plus(alpha, b.m[i][j])
				}
				if !sr.Eq(alpha, sr.One()) {
					changed = true
					stats.Shifts++
					uy.levels[j] = sr.Times(uy.levels[j], alpha)
					for i := range b.dx {
						b.m[i][j] = sr.Div(b.m[i][j], alpha)
					}
				}
			}
		}
		// Node consistency: shift unary lubs into c∅.
		if shifts := nf.sweep(); shifts > 0 {
			changed = true
			stats.Shifts += shifts
		}
		stats.Rounds = round + 1
		if !changed {
			break
		}
	}

	out := core.NewProblem(s, p.Con()...)
	out.Add(core.Constant(s, nf.czero))
	for _, u := range nf.order {
		u := u
		allOne := true
		for _, lv := range u.levels {
			if !sr.Eq(lv, sr.One()) {
				allOne = false
				break
			}
		}
		if allOne {
			continue
		}
		idx := map[string]int{}
		for i, d := range u.dom {
			idx[d.Label] = i
		}
		out.Add(core.NewConstraint(s, []core.Variable{u.v}, func(a core.Assignment) T {
			return u.levels[idx[a.Label(u.v)]]
		}))
	}
	for _, b := range binaries {
		b := b
		x, y := b.ux.v, b.uy.v
		ix := map[string]int{}
		for i, d := range b.dx {
			ix[d.Label] = i
		}
		iy := map[string]int{}
		for j, d := range b.dy {
			iy[d.Label] = j
		}
		out.Add(core.NewConstraint(s, []core.Variable{x, y}, func(a core.Assignment) T {
			return b.m[ix[a.Label(x)]][iy[a.Label(y)]]
		}))
	}
	out.Add(passthrough...)
	return out, nf.czero, stats
}

// NodeBound returns the c∅ that Propagate(p, 1) returns for a problem
// p over s holding cons, without building the rewritten problem. When
// every constraint is unary or zero-arity it runs Propagate's own
// fold: the zero-arity levels, then one node-consistency sweep over
// the unary tables. Any other constraint falls back to Propagate.
func NodeBound[T any](s *core.Space[T], cons ...*core.Constraint[T]) T {
	nf := newNodeFold(s)
	for _, c := range cons {
		scope := c.Scope()
		if len(scope) > 1 {
			_, czero, _ := Propagate(core.NewProblem(s).Add(cons...), 1)
			return czero
		}
		nf.add(c, scope)
	}
	nf.sweep()
	return nf.czero
}

// unaryLevels is one variable's unary table during propagation,
// indexed like the variable's domain.
type unaryLevels[T any] struct {
	v      core.Variable
	dom    []core.DVal
	levels []T
}

// nodeFold is the node-consistency half of Propagate: c∅ and the
// unary tables. The tables are kept in first-creation order (a
// function of the deterministic constraint order) and every sweep
// iterates that slice, never the map, so the c∅ accumulation order —
// and with it every floating-point fold — is identical across runs.
type nodeFold[T any] struct {
	s       *core.Space[T]
	sr      semiring.Semiring[T]
	czero   T
	unaries map[core.Variable]*unaryLevels[T]
	order   []*unaryLevels[T]
	vals    []T // scratch for a constraint's table
}

func newNodeFold[T any](s *core.Space[T]) *nodeFold[T] {
	sr := s.Semiring()
	return &nodeFold[T]{s: s, sr: sr, czero: sr.One(), unaries: map[core.Variable]*unaryLevels[T]{}}
}

// unary returns v's table, creating it at One.
func (f *nodeFold[T]) unary(v core.Variable) *unaryLevels[T] {
	if u, ok := f.unaries[v]; ok {
		return u
	}
	dom := f.s.Domain(v)
	levels := make([]T, len(dom))
	for i := range levels {
		levels[i] = f.sr.One()
	}
	u := &unaryLevels[T]{v: v, dom: dom, levels: levels}
	f.unaries[v] = u
	f.order = append(f.order, u)
	return u
}

// add folds a zero-arity constraint into c∅ and a unary one into its
// variable's table; scope is c.Scope(), of length 0 or 1. A unary
// table lists its values in domain order.
func (f *nodeFold[T]) add(c *core.Constraint[T], scope []core.Variable) {
	f.vals = c.Values(f.vals[:0])
	if len(scope) == 0 {
		f.czero = f.sr.Times(f.czero, f.vals[0])
		return
	}
	u := f.unary(scope[0])
	for i := range u.levels {
		u.levels[i] = f.sr.Times(u.levels[i], f.vals[i])
	}
}

// sweep shifts every unary table's lub into c∅ and returns the number
// of shifts.
func (f *nodeFold[T]) sweep() int64 {
	sr := f.sr
	var shifts int64
	for _, u := range f.order {
		beta := sr.Zero()
		for _, lv := range u.levels {
			beta = sr.Plus(beta, lv)
		}
		if !sr.Eq(beta, sr.One()) {
			shifts++
			f.czero = sr.Times(f.czero, beta)
			for i := range u.levels {
				u.levels[i] = sr.Div(u.levels[i], beta)
			}
		}
	}
	return shifts
}
