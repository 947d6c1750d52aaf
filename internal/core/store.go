package core

// Store is the shared constraint store σ of a (nonmonotonic) soft
// concurrent constraint computation. It holds a single constraint —
// the combination of everything told so far, minus what has been
// retracted — materialised over its current support. The zero store
// is not usable; construct with NewStore, which yields the empty
// store 1̄ (no information, full consistency).
//
// Store methods implement exactly the store transformations of the
// nmsccp transition rules (Fig. 4 of the paper): Tell is σ ⊗ c,
// Retract is σ ÷ c (guarded by σ ⊑ c), Update_X is (σ⇓_{V\X}) ⊗ c,
// and Entails is the ⊢ relation used by ask/nask.
//
// A Store is not safe for concurrent use; the nmsccp interpreter
// serialises access through its interleaving scheduler, mirroring the
// paper's small-step semantics in which each transition is atomic.
type Store[T any] struct {
	space *Space[T]
	sigma *Constraint[T]
}

// NewStore returns the empty store (σ = 1̄) over the space.
func NewStore[T any](s *Space[T]) *Store[T] {
	return &Store[T]{space: s, sigma: Top(s)}
}

// StoreOf returns the store σ = c with c's bits as they are; telling c
// onto 1̄ need not keep them (weighted: 0 + −0 is 0).
func StoreOf[T any](c *Constraint[T]) *Store[T] {
	return &Store[T]{space: c.space, sigma: c}
}

// Space returns the store's space.
func (st *Store[T]) Space() *Space[T] { return st.space }

// Constraint returns the current store constraint σ.
func (st *Store[T]) Constraint() *Constraint[T] { return st.sigma }

// Snapshot returns a copy of the store that evolves independently.
func (st *Store[T]) Snapshot() *Store[T] {
	return &Store[T]{space: st.space, sigma: st.sigma}
}

// Restore resets the store to a previously taken snapshot.
func (st *Store[T]) Restore(snap *Store[T]) {
	if snap.space != st.space {
		panic("core: Restore from store over a different space")
	}
	st.sigma = snap.sigma
}

// Tell combines c into the store: σ' = σ ⊗ c.
func (st *Store[T]) Tell(c *Constraint[T]) {
	st.sigma = Combine(st.sigma, c)
}

// Retract divides c out of the store: σ' = σ ÷ c. Following rule R7
// it requires σ ⊑ c (the store entails c); it reports whether the
// retraction was applied. Retracting a constraint that was never told
// is legal whenever the store is strong enough to entail it — this is
// how Example 2 of the paper relaxes a merged policy.
func (st *Store[T]) Retract(c *Constraint[T]) bool {
	if !Leq(st.sigma, c) {
		return false
	}
	st.sigma = Divide(st.sigma, c)
	return true
}

// Update implements update_X(c): it removes the influence of every
// constraint on the variables in X by projecting the store onto
// V \ X, then tells c. The removals and the addition are
// transactional — they happen as one store transformation.
func (st *Store[T]) Update(x []Variable, c *Constraint[T]) {
	st.sigma = Combine(ProjectOut(st.sigma, x...), c)
}

// Entails reports σ ⊢ c, i.e. σ ⊑ c.
func (st *Store[T]) Entails(c *Constraint[T]) bool {
	return Leq(st.sigma, c)
}

// Blevel returns σ ⇓ ∅, the consistency level of the store.
func (st *Store[T]) Blevel() T { return Blevel(st.sigma) }

// Consistent reports whether the store's blevel is above Zero.
func (st *Store[T]) Consistent() bool {
	sr := st.space.sr
	return !sr.Eq(st.Blevel(), sr.Zero())
}
