package sccp

import "fmt"

// Timeout is the timed extension of nmsccp (after Bistarelli,
// Gabbrielli, Meo & Santini, "Timed soft concurrent constraint
// programs", COORDINATION 2008 — the mechanism the paper's Example 2
// points to for timing out a negotiation). The agent behaves as Body
// if Body can act; every time the scheduler visits the node while
// Body is blocked one time unit elapses (an observable "tick"
// transition), and when the budget is exhausted the agent becomes
// Else. It is how a negotiator abandons a partner that never answers.
type Timeout[T any] struct {
	// Budget is the number of remaining time units.
	Budget int
	// Body is the agent given a chance to act before the deadline.
	Body Agent[T]
	// Else is the continuation after the deadline passes.
	Else Agent[T]
}

func (Timeout[T]) isAgent() {}

// String includes the remaining budget, so every tick is visible in
// the trace.
func (a Timeout[T]) String() string {
	return fmt.Sprintf("timeout(%d){%s}else{%s}", a.Budget, a.Body, a.Else)
}

// stepTimeout implements the three timed rules:
//
//	⟨A,σ⟩ → ⟨A',σ'⟩  ⟹  ⟨timeout(t){A}{B},σ⟩ → ⟨A',σ'⟩        (t > 0)
//	A blocked        ⟹  ⟨timeout(t){A}{B},σ⟩ → ⟨timeout(t-1){A}{B},σ⟩ (tick, t > 0)
//	                     timeout(0){A}{B} ≡ B
func (m *Machine[T]) stepTimeout(ag Timeout[T], depth int) (Agent[T], bool, error) {
	if ag.Budget <= 0 {
		// Deadline already passed: administratively become Else and
		// give it an immediate chance to act.
		m.rewrites++
		next, applied, err := m.step(ag.Else, depth+1)
		if err != nil {
			return ag, false, err
		}
		return next, applied, nil
	}
	rewrites := m.rewrites
	next, applied, err := m.step(ag.Body, depth+1)
	if err != nil {
		return ag, false, err
	}
	if applied {
		m.lastEvent().Rule += " (via Timeout)"
		return next, true, nil
	}
	if m.rewrites != rewrites {
		// The body rewrote administratively; keep the timer running.
		return Timeout[T]{Budget: ag.Budget, Body: next, Else: ag.Else}, false, nil
	}
	// The body is blocked: one time unit passes. Ticks are real
	// transitions — time is observable — so a lone timer runs the
	// fuel down rather than deadlocking the machine.
	var out Agent[T] = Timeout[T]{Budget: ag.Budget - 1, Body: ag.Body, Else: ag.Else}
	m.record("Tick Timeout", out, nil, Check[T]{})
	return out, true, nil
}
