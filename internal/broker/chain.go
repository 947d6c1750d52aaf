package broker

import "softsoa/internal/semiring"

// chain is encode's problem in array form: one unary constraint per
// stage and one link constraint per adjacent pair make its constraint
// graph a path, so a max-⊗ pass over the stages solves it exactly.
//
// The pass gives sequential branch and bound's answer bit for bit. It
// folds a prefix in branch and bound's order, (prefix ⊗ unary) ⊗ link,
// and a rounded × is monotone, so the best prefix into a candidate
// extends to the best level through it: the optimum's bits are exact.
// Branch and bound answers with the first optimum it visits, the
// lexicographically least, so solve rebuilds that binding stage by
// stage, keeping the lowest-index candidate that can still reach the
// optimum.
type chain struct {
	sr    semiring.Semiring[float64]
	cands [][]candidate
	link  float64 // the penalty for a cross-region hop
	// best[i][j] is the best level of a prefix binding stages 0..i
	// that ends at candidate j, and live[i][j] whether that prefix
	// extends to a binding of level opt, the optimum.
	best  [][]float64
	live  [][]bool
	opt   float64
	cells int64 // step evaluations
}

// step extends a prefix of level v that ends at candidate k of stage
// i-1 by candidate j of stage i (k is ignored for stage 0).
func (ch *chain) step(v float64, i, k, j int) float64 {
	ch.cells++
	v = ch.sr.Times(v, ch.cands[i][j].level)
	if i == 0 {
		return v
	}
	l := ch.sr.One()
	if ch.cands[i-1][k].region != ch.cands[i][j].region {
		l = ch.link
	}
	return ch.sr.Times(v, l)
}

// into returns the best level of the prefixes cur, indexed by stage
// i-1's candidates, extended by candidate j of stage i. Prefixes worse
// than floor are skipped.
func (ch *chain) into(i, j int, cur []float64, floor float64) float64 {
	best := ch.sr.Zero()
	for k, v := range cur {
		if semiring.Lt(ch.sr, v, floor) {
			continue
		}
		if w := ch.step(v, i, k, j); semiring.Gt(ch.sr, w, best) {
			best = w
		}
	}
	return best
}

// extends reports whether a prefix of level v that binds stage i to
// the live candidate j extends to a binding of level opt. No prefix
// into a candidate reaches further than the best one, so a prefix
// equal to it reaches as far; any other is folded forward on its own,
// through live candidates only, dropping levels worse than opt (× is
// intensive).
func (ch *chain) extends(i, j int, v float64) bool {
	switch {
	case semiring.Lt(ch.sr, v, ch.opt):
		return false
	case ch.sr.Eq(v, ch.best[i][j]):
		return true
	}
	cur := make([]float64, len(ch.cands[i]))
	for k := range cur {
		cur[k] = ch.sr.Zero()
	}
	cur[j] = v
	for m := i + 1; m < len(ch.cands); m++ {
		next := make([]float64, len(ch.cands[m]))
		alive := false
		for jj := range next {
			next[jj] = ch.sr.Zero()
			if ch.live[m][jj] {
				next[jj] = ch.into(m, jj, cur, ch.opt)
				if ch.sr.Eq(next[jj], ch.best[m][jj]) {
					return true
				}
				alive = alive || !semiring.Lt(ch.sr, next[jj], ch.opt)
			}
		}
		if !alive {
			return false
		}
		cur = next
	}
	return false
}

// next returns the lowest-index candidate of stage i+1 through which a
// prefix of level v that ends at candidate k of stage i reaches opt,
// with the extended level; -1 when there is none.
func (ch *chain) next(i, k int, v float64) (int, float64) {
	for j := range ch.cands[i+1] {
		if !ch.live[i+1][j] {
			continue
		}
		if w := ch.step(v, i+1, k, j); ch.extends(i+1, j, w) {
			return j, w
		}
	}
	return -1, 0
}

// solve returns the chosen candidate of every stage and the prefix
// level after each stage, the last being the optimum; nil when every
// binding is inconsistent (level 0̄), which branch and bound does not
// admit as a solution either. It folds forward to the optimum, marks
// the live candidates back to front, and rebuilds front to back.
func (ch *chain) solve() (picks []int, prefix []float64) {
	n := len(ch.cands)
	ch.best = make([][]float64, n)
	cur := []float64{ch.sr.One()}
	for i := range ch.cands {
		ch.best[i] = make([]float64, len(ch.cands[i]))
		for j := range ch.best[i] {
			ch.best[i][j] = ch.into(i, j, cur, ch.sr.Zero())
		}
		cur = ch.best[i]
	}
	ch.opt = ch.sr.Zero()
	for _, v := range cur {
		if semiring.Gt(ch.sr, v, ch.opt) {
			ch.opt = v
		}
	}
	if ch.sr.Eq(ch.opt, ch.sr.Zero()) {
		return nil, nil
	}
	ch.live = make([][]bool, n)
	for i := n - 1; i >= 0; i-- {
		ch.live[i] = make([]bool, len(ch.cands[i]))
		for k, v := range ch.best[i] {
			ch.live[i][k] = !semiring.Lt(ch.sr, v, ch.opt)
			if ch.live[i][k] && i+1 < n {
				j, _ := ch.next(i, k, v)
				ch.live[i][k] = j >= 0
			}
		}
	}
	picks = make([]int, n)
	prefix = make([]float64, n)
	k, v := 0, ch.sr.One()
	for i := range ch.cands {
		k, v = ch.next(i-1, k, v)
		picks[i], prefix[i] = k, v
	}
	return picks, prefix
}
