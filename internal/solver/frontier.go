package solver

import (
	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

// digitFrontier maintains the non-dominated complete assignments seen
// so far, as digit-vector snapshots rather than materialised
// Assignments, so the search inner loop never allocates: displaced
// snapshots park their buffers on a free list for later admissions.
// max ≤ 0 means unbounded.
type digitFrontier[T any] struct {
	sr   semiring.Semiring[T]
	max  int
	sol  []digitSol[T]
	free [][]int
}

// digitSol is one frontier entry: a digit-vector snapshot + value.
type digitSol[T any] struct {
	digits []int
	value  T
}

func newDigitFrontier[T any](sr semiring.Semiring[T], max int) *digitFrontier[T] {
	return &digitFrontier[T]{sr: sr, max: max}
}

// dominates reports whether some incumbent strictly dominates v, in
// which case any completion of a node with bound v is itself
// dominated (× is intensive) and can be pruned.
func (f *digitFrontier[T]) dominates(v T) bool {
	for _, s := range f.sol {
		if semiring.Gt(f.sr, s.value, v) {
			return true
		}
	}
	return false
}

// offer inserts a snapshot of digits with value v unless v is
// dominated by (or the frontier is full of) incumbents, displacing
// any incumbents v strictly dominates. It reports whether the offer
// was admitted. The early return on a dominating incumbent is safe
// mid-scan: by transitivity of strict dominance, a dominating
// incumbent cannot coexist with one v displaces, so the in-place keep
// prefix equals the original prefix.
func (f *digitFrontier[T]) offer(digits []int, v T) bool {
	if f.sr.Eq(v, f.sr.Zero()) {
		return false
	}
	keep := f.sol[:0]
	for _, s := range f.sol {
		if semiring.Gt(f.sr, s.value, v) {
			return false // dominated by an incumbent; frontier unchanged
		}
		if semiring.Gt(f.sr, v, s.value) {
			f.free = append(f.free, s.digits) // displaced; recycle buffer
		} else {
			keep = append(keep, s)
		}
	}
	f.sol = keep
	if f.max > 0 && len(f.sol) >= f.max {
		return false
	}
	var buf []int
	if n := len(f.free); n > 0 {
		buf = f.free[n-1][:len(digits)]
		f.free = f.free[:n-1]
	} else {
		//lint:ignore hotpath free-list miss: steady state recycles displaced snapshot buffers
		buf = make([]int, len(digits))
	}
	copy(buf, digits)
	f.sol = append(f.sol, digitSol[T]{digits: buf, value: v})
	return true
}

// solutions materialises the frontier as Assignments in admission
// order (first-found order for the sequential solvers).
func (f *digitFrontier[T]) solutions(ev *core.Evaluator[T]) []Solution[T] {
	out := make([]Solution[T], len(f.sol))
	for i, s := range f.sol {
		out[i] = Solution[T]{Assignment: ev.Assignment(s.digits), Value: s.value}
	}
	return out
}
