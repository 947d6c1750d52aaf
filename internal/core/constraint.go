package core

import (
	"fmt"
	"sort"
	"strings"
)

// maxTableSize bounds the materialised table of any constraint. The
// product of the domain sizes over a constraint's support must stay
// under this limit; exceeding it indicates the problem should be
// decomposed (e.g. solved with variable elimination on a tree
// decomposition) rather than joined into one table.
const maxTableSize = 1 << 26

// Constraint is a soft constraint: a function assigning a semiring
// value to every tuple of domain values for the variables in its
// support (scope). The function is materialised as a flat table in
// mixed-radix order — the first support variable is the most
// significant digit. Constraints are immutable once built.
type Constraint[T any] struct {
	space *Space[T]
	scope []int // sorted variable indices into space
	// stride[j] is the table stride of the j-th scope variable: the
	// product of the domain sizes of the scope variables after it.
	// Precomputed at construction so AtIndex is pure integer
	// multiply-adds with no per-call allocation.
	stride []int
	table  []T
}

// NewConstraint builds a constraint over the given scope, calling fn
// once per tuple to obtain its semiring value. fn receives an
// Assignment covering exactly the scope variables. The scope may be
// empty, yielding a constant constraint. Panics on unknown or
// duplicate scope variables.
func NewConstraint[T any](s *Space[T], scope []Variable, fn func(Assignment) T) *Constraint[T] {
	c := newEmpty(s, scope)
	asst := make(Assignment, len(c.scope))
	digits := make([]int, len(c.scope))
	for i := range c.table {
		for j, vi := range c.scope {
			asst[s.names[vi]] = s.domains[vi][digits[j]]
		}
		c.table[i] = fn(asst)
		c.incr(digits)
	}
	return c
}

// Constant returns the constraint with empty support that maps every
// assignment to v. The paper writes ā for these; 0̄ and 1̄ are
// Constant(s, Zero) and Constant(s, One).
func Constant[T any](s *Space[T], v T) *Constraint[T] {
	c := newEmpty(s, nil)
	c.table[0] = v
	return c
}

// Top returns the constraint 1̄ (always One): the empty store.
func Top[T any](s *Space[T]) *Constraint[T] { return Constant(s, s.sr.One()) }

// Bottom returns the constraint 0̄ (always Zero).
func Bottom[T any](s *Space[T]) *Constraint[T] { return Constant(s, s.sr.Zero()) }

// Diagonal returns the diagonal constraint d_xy used to model
// parameter passing: One where x and y take equal labels, Zero
// elsewhere. Panics if the variables' domains have different lengths
// or labels, since equality would then be ill-defined.
func Diagonal[T any](s *Space[T], x, y Variable) *Constraint[T] {
	if x == y {
		return Top(s)
	}
	dx, dy := s.domains[s.varIndex(x)], s.domains[s.varIndex(y)]
	if len(dx) != len(dy) {
		panic(fmt.Sprintf("core: diagonal over mismatched domains %q/%q", x, y))
	}
	return NewConstraint(s, []Variable{x, y}, func(a Assignment) T {
		if a.Label(x) == a.Label(y) {
			return s.sr.One()
		}
		return s.sr.Zero()
	})
}

// Unary builds a unary constraint from an explicit label→value table.
// Labels absent from the table get the semiring One (no preference).
func Unary[T any](s *Space[T], v Variable, prefs map[string]T) *Constraint[T] {
	return NewConstraint(s, []Variable{v}, func(a Assignment) T {
		if val, ok := prefs[a.Label(v)]; ok {
			return val
		}
		return s.sr.One()
	})
}

// Binary builds a binary constraint from an explicit table keyed by
// the two labels. Pairs absent from the table get the semiring One.
func Binary[T any](s *Space[T], x, y Variable, prefs map[[2]string]T) *Constraint[T] {
	return NewConstraint(s, []Variable{x, y}, func(a Assignment) T {
		if val, ok := prefs[[2]string{a.Label(x), a.Label(y)}]; ok {
			return val
		}
		return s.sr.One()
	})
}

func newEmpty[T any](s *Space[T], scope []Variable) *Constraint[T] {
	idx := make([]int, 0, len(scope))
	seen := make(map[int]bool, len(scope))
	for _, v := range scope {
		i := s.varIndex(v)
		if seen[i] {
			panic(fmt.Sprintf("core: duplicate scope variable %q", v))
		}
		seen[i] = true
		idx = append(idx, i)
	}
	sort.Ints(idx)
	size := 1
	for _, i := range idx {
		size *= s.domainSize(i)
		if size > maxTableSize {
			panic(fmt.Sprintf("core: constraint table over %v exceeds %d entries", scope, maxTableSize))
		}
	}
	c := &Constraint[T]{space: s, scope: idx, table: make([]T, size)}
	c.computeStride()
	return c
}

// computeStride fills c.stride for the (sorted) scope: mixed-radix
// positional strides, first scope variable most significant.
func (c *Constraint[T]) computeStride() {
	c.stride = make([]int, len(c.scope))
	acc := 1
	for j := len(c.scope) - 1; j >= 0; j-- {
		c.stride[j] = acc
		acc *= c.space.domainSize(c.scope[j])
	}
}

// AtIndex returns the value under a space-wide digit vector: digits[i]
// is the chosen domain index for the i-th declared variable. Only the
// digits of the scope variables are read, so the vector may describe a
// partial assignment as long as the scope is covered. This is the
// allocation-free fast path used by search solvers; At remains the
// label-checked Assignment path.
//
//softsoa:hotpath
func (c *Constraint[T]) AtIndex(digits []int) T {
	idx := 0
	for j, vi := range c.scope {
		idx += digits[vi] * c.stride[j]
	}
	return c.table[idx]
}

// incr advances digits as a mixed-radix odometer over the scope.
func (c *Constraint[T]) incr(digits []int) {
	for j := len(digits) - 1; j >= 0; j-- {
		digits[j]++
		if digits[j] < c.space.domainSize(c.scope[j]) {
			return
		}
		digits[j] = 0
	}
}

// Space returns the space the constraint belongs to.
func (c *Constraint[T]) Space() *Space[T] { return c.space }

// Scope returns the constraint's support variables in index order.
func (c *Constraint[T]) Scope() []Variable {
	out := make([]Variable, len(c.scope))
	for i, vi := range c.scope {
		out[i] = c.space.names[vi]
	}
	return out
}

// Size returns the number of tuples in the materialised table.
func (c *Constraint[T]) Size() int { return len(c.table) }

// HasVar reports whether v is in the constraint's support, without
// materialising the scope the way Scope() does.
func (c *Constraint[T]) HasVar(v Variable) bool {
	for _, vi := range c.scope {
		if c.space.names[vi] == v {
			return true
		}
	}
	return false
}

// At returns the semiring value for the given assignment, which must
// cover the constraint's scope; extra variables are ignored (a
// constraint depends only on its support). Panics if a scope variable
// is unassigned or assigned a label outside its domain.
func (c *Constraint[T]) At(a Assignment) T {
	idx := 0
	for j, vi := range c.scope {
		name := c.space.names[vi]
		dv, ok := a[name]
		if !ok {
			panic(fmt.Sprintf("core: assignment missing scope variable %q", name))
		}
		pos := -1
		for k, d := range c.space.domains[vi] {
			if d.Label == dv.Label {
				pos = k
				break
			}
		}
		if pos < 0 {
			panic(fmt.Sprintf("core: label %q not in domain of %q", dv.Label, name))
		}
		_ = j
		idx = idx*c.space.domainSize(vi) + pos
	}
	return c.table[idx]
}

// AtLabels is At with labels given positionally in scope order.
func (c *Constraint[T]) AtLabels(labels ...string) T {
	if len(labels) != len(c.scope) {
		panic(fmt.Sprintf("core: AtLabels got %d labels for scope of %d", len(labels), len(c.scope)))
	}
	a := make(Assignment, len(labels))
	for j, vi := range c.scope {
		name := c.space.names[vi]
		found := false
		for _, d := range c.space.domains[vi] {
			if d.Label == labels[j] {
				a[name] = d
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("core: label %q not in domain of %q", labels[j], name))
		}
	}
	return c.At(a)
}

// ForEach calls fn for every tuple with its assignment and value.
// The assignment is reused between calls; fn must not retain it.
func (c *Constraint[T]) ForEach(fn func(Assignment, T)) {
	asst := make(Assignment, len(c.scope))
	digits := make([]int, len(c.scope))
	for i := range c.table {
		for j, vi := range c.scope {
			asst[c.space.names[vi]] = c.space.domains[vi][digits[j]]
		}
		fn(asst, c.table[i])
		c.incr(digits)
	}
}

// Values appends the table's values to dst in mixed-radix order and
// returns the extended slice. It is the bulk form of ForEach for
// content hashing and serialisation: no per-tuple assignments are
// materialised, and the order is the same canonical one String
// renders.
func (c *Constraint[T]) Values(dst []T) []T {
	return append(dst, c.table...)
}

// FromValues is the inverse of Values: the constraint over scope (in
// declaration order, as Scope returns it) whose table is values.
func FromValues[T any](s *Space[T], scope []Variable, values []T) (*Constraint[T], error) {
	for i, v := range scope {
		if _, ok := s.index[v]; !ok || i > 0 && s.index[v] <= s.index[scope[i-1]] {
			return nil, fmt.Errorf("core: scope %v is not declared variables in declaration order", scope)
		}
	}
	c := newEmpty(s, scope)
	if len(values) != len(c.table) {
		return nil, fmt.Errorf("core: %d values for a table of %d over %v", len(values), len(c.table), scope)
	}
	copy(c.table, values)
	return c, nil
}

// String renders the constraint as a readable table, tuples in
// mixed-radix order.
func (c *Constraint[T]) String() string {
	var b strings.Builder
	names := c.Scope()
	fmt.Fprintf(&b, "c(")
	for i, n := range names {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(string(n))
	}
	b.WriteString("){")
	first := true
	c.ForEach(func(a Assignment, v T) {
		if !first {
			b.WriteString(" ")
		}
		first = false
		b.WriteString("⟨")
		for i, n := range names {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(a.Label(n))
		}
		fmt.Fprintf(&b, "⟩→%s", c.space.sr.Format(v))
	})
	b.WriteString("}")
	return b.String()
}

func (c *Constraint[T]) sameSpace(d *Constraint[T]) {
	if c.space != d.space {
		panic("core: constraints from different spaces")
	}
}
