package solver

import (
	"math"
	"math/rand"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// TestPropagateEquivalence: for invertible semirings, propagation is
// an equivalence-preserving reformulation: c∅ ⊗ (⊗C') = ⊗C pointwise.
func TestPropagateEquivalence(t *testing.T) {
	cases := []struct {
		name string
		make func(seed int64) (*core.Problem[float64], error)
	}{
		{"weighted", func(seed int64) (*core.Problem[float64], error) {
			return workload.RandomWeightedSCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.7, Tightness: 0.9, Seed: seed,
			})
		}},
		{"fuzzy", func(seed int64) (*core.Problem[float64], error) {
			return workload.RandomFuzzySCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.7, Tightness: 0.8, Seed: seed,
			})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				p, err := tc.make(seed)
				if err != nil {
					t.Fatal(err)
				}
				q, czero, stats := Propagate(p, 0)
				// The rebuilt problem already contains Constant(czero), so
				// the combined tables must be pointwise equal.
				if !core.Eq(p.Combined(), q.Combined()) {
					t.Fatalf("seed %d: propagation changed the combined constraint", seed)
				}
				sr := p.Space().Semiring()
				if !sr.Leq(p.Blevel(), czero) {
					t.Errorf("seed %d: c∅ = %v is not an upper bound on blevel %v",
						seed, czero, p.Blevel())
				}
				if stats.Rounds == 0 {
					t.Errorf("seed %d: no rounds recorded", seed)
				}
			}
		})
	}
}

func TestPropagateReachesFixpoint(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 5, DomainSize: 4, Density: 0.8, Tightness: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, czero1, stats1 := Propagate(p, 0)
	if stats1.Shifts == 0 {
		t.Fatal("expected shifts on a tight problem")
	}
	// Propagating the already-propagated problem must be a no-op
	// beyond re-deriving the same c∅ (the constant constraint carries
	// it; unary/binary tables are already consistent).
	_, czero2, stats2 := Propagate(q, 0)
	if czero2 != czero1 {
		t.Errorf("second propagation changed c∅: %v -> %v", czero1, czero2)
	}
	if stats2.Shifts != 0 {
		t.Errorf("second propagation still shifted %d times", stats2.Shifts)
	}
}

func TestPropagateSolversAgree(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 6, DomainSize: 3, Density: 0.6, Tightness: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		q, _, _ := Propagate(p, 0)
		orig := BranchAndBound(p)
		prop := BranchAndBound(q)
		if orig.Blevel != prop.Blevel {
			t.Errorf("seed %d: propagation changed the optimum: %v vs %v",
				seed, orig.Blevel, prop.Blevel)
		}
	}
}

func TestPropagateImprovesPruning(t *testing.T) {
	// With c∅ folded in at the root and unary tables sharpened, plain
	// B&B prunes at least as well on the propagated problem for these
	// seeds.
	improvedSomewhere := false
	for seed := int64(1); seed <= 8; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 7, DomainSize: 3, Density: 0.7, Tightness: 1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		q, _, _ := Propagate(p, 0)
		orig := BranchAndBound(p)
		prop := BranchAndBound(q)
		if prop.Stats.Nodes < orig.Stats.Nodes {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("propagation never reduced B&B nodes across 8 seeds")
	}
}

func TestPropagatePassesThroughHigherArity(t *testing.T) {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 1))
	y := s.AddVariable("y", core.IntDomain(0, 1))
	z := s.AddVariable("z", core.IntDomain(0, 1))
	p := core.NewProblem(s, x)
	ternary := core.NewConstraint(s, []core.Variable{x, y, z}, func(a core.Assignment) float64 {
		return a.Num(x) + a.Num(y) + a.Num(z)
	})
	p.Add(ternary)
	p.Add(core.Unary(s, x, map[string]float64{"0": 2, "1": 3}))
	q, czero, _ := Propagate(p, 0)
	if !core.Eq(p.Combined(), q.Combined()) {
		t.Fatal("equivalence broken with ternary passthrough")
	}
	// The unary's lub (2) must have moved into c∅.
	if czero != 2 {
		t.Errorf("c∅ = %v, want 2", czero)
	}
}

func TestPropagateEmptyProblem(t *testing.T) {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 1))
	p := core.NewProblem(s, x)
	q, czero, _ := Propagate(p, 0)
	if czero != 0 {
		t.Errorf("c∅ = %v, want 0 (the One)", czero)
	}
	if got := q.Blevel(); got != 0 {
		t.Errorf("blevel = %v", got)
	}
}

// nodeBoundCase checks NodeBound on 200 random problems over one or
// two variables: unary tables and zero-arity constants, plus a binary
// constraint in every fifth problem to take the fallback. Its c∅ must
// carry the bits of Propagate(p, 1)'s and of the label-by-label fold
// the negotiator's precheck ran before NodeBound.
func nodeBoundCase[T any](t *testing.T, sr semiring.Semiring[T], value func(*rand.Rand) T, same func(a, b T) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 200; k++ {
		s := core.NewSpace(sr)
		vars := []core.Variable{s.AddVariable("x", core.IntDomain(0, rng.Intn(4)))}
		if rng.Intn(2) == 0 {
			vars = append(vars, s.AddVariable("y", core.IntDomain(0, rng.Intn(4))))
		}
		var cons []*core.Constraint[T]
		for n := 1 + rng.Intn(5); n > 0; n-- {
			if rng.Intn(4) == 0 {
				cons = append(cons, core.Constant(s, value(rng)))
				continue
			}
			v := vars[rng.Intn(len(vars))]
			cons = append(cons, core.NewConstraint(s, []core.Variable{v}, func(core.Assignment) T { return value(rng) }))
		}
		unaryOnly := k%5 != 0 || len(vars) == 1
		if !unaryOnly {
			cons = append(cons, core.NewConstraint(s, vars, func(core.Assignment) T { return value(rng) }))
		}
		got := NodeBound(s, cons...)
		_, want, _ := Propagate(core.NewProblem(s).Add(cons...), 1)
		if !same(got, want) {
			t.Fatalf("problem %d: NodeBound %s, Propagate(p, 1) %s", k, sr.Format(got), sr.Format(want))
		}
		if unaryOnly {
			if ref := labelFold(s, cons); !same(got, ref) {
				t.Fatalf("problem %d: NodeBound %s, label-by-label fold %s", k, sr.Format(got), sr.Format(ref))
			}
		}
	}
}

// labelFold is the precheck's c∅ as Propagate computed it before the
// fold was shared: every unary level read by label through AtLabels.
func labelFold[T any](s *core.Space[T], cons []*core.Constraint[T]) T {
	sr := s.Semiring()
	czero := sr.One()
	levels := map[core.Variable][]T{}
	var order []core.Variable
	for _, c := range cons {
		scope := c.Scope()
		if len(scope) == 0 {
			czero = sr.Times(czero, c.AtLabels())
			continue
		}
		v, dom := scope[0], s.Domain(scope[0])
		if _, ok := levels[v]; !ok {
			levels[v] = make([]T, len(dom))
			for i := range dom {
				levels[v][i] = sr.One()
			}
			order = append(order, v)
		}
		for i, d := range dom {
			levels[v][i] = sr.Times(levels[v][i], c.AtLabels(d.Label))
		}
	}
	for _, v := range order {
		beta := sr.Zero()
		for _, lv := range levels[v] {
			beta = sr.Plus(beta, lv)
		}
		if !sr.Eq(beta, sr.One()) {
			czero = sr.Times(czero, beta)
		}
	}
	return czero
}

// TestNodeBoundMatchesPropagate runs nodeBoundCase over all seven
// semirings. Values hit One and Zero often, so both branches of the
// node-consistency shift are taken.
func TestNodeBoundMatchesPropagate(t *testing.T) {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	pick := func(rng *rand.Rand, special []float64, draw func() float64) float64 {
		if i := rng.Intn(len(special) + 2); i < len(special) {
			return special[i]
		}
		return draw()
	}
	t.Run("weighted", func(t *testing.T) {
		nodeBoundCase[float64](t, semiring.Weighted{}, func(rng *rand.Rand) float64 {
			return pick(rng, []float64{0, math.Inf(1)}, func() float64 { return float64(rng.Intn(20)) + rng.Float64() })
		}, sameFloat)
	})
	t.Run("bounded", func(t *testing.T) {
		nodeBoundCase[float64](t, semiring.NewBoundedWeighted(50), func(rng *rand.Rand) float64 {
			return pick(rng, []float64{0, 50}, func() float64 { return float64(rng.Intn(60)) + rng.Float64() })
		}, sameFloat)
	})
	t.Run("fuzzy", func(t *testing.T) {
		nodeBoundCase[float64](t, semiring.Fuzzy{}, func(rng *rand.Rand) float64 {
			return pick(rng, []float64{0, 1}, rng.Float64)
		}, sameFloat)
	})
	t.Run("probabilistic", func(t *testing.T) {
		nodeBoundCase[float64](t, semiring.Probabilistic{}, func(rng *rand.Rand) float64 {
			return pick(rng, []float64{0, 1}, rng.Float64)
		}, sameFloat)
	})
	t.Run("classical", func(t *testing.T) {
		nodeBoundCase[bool](t, semiring.Classical{}, func(rng *rand.Rand) bool {
			return rng.Intn(3) > 0
		}, func(a, b bool) bool { return a == b })
	})
	t.Run("set", func(t *testing.T) {
		nodeBoundCase[semiring.Bitset](t, semiring.NewSet("read", "write", "admin"), func(rng *rand.Rand) semiring.Bitset {
			return semiring.Bitset(rng.Intn(8))
		}, func(a, b semiring.Bitset) bool { return a == b })
	})
	t.Run("product", func(t *testing.T) {
		nodeBoundCase[semiring.Pair[float64, float64]](t, semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Fuzzy{}),
			func(rng *rand.Rand) semiring.Pair[float64, float64] {
				return semiring.P(pick(rng, []float64{0}, func() float64 { return float64(rng.Intn(10)) }),
					pick(rng, []float64{1}, rng.Float64))
			}, func(a, b semiring.Pair[float64, float64]) bool {
				return sameFloat(a.First, b.First) && sameFloat(a.Second, b.Second)
			})
	})
}
