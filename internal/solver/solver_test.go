package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// fig1 builds the Fig. 1 weighted SCSP from the paper.
func fig1() *core.Problem[float64] {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("X", core.LabelDomain("a", "b"))
	y := s.AddVariable("Y", core.LabelDomain("a", "b"))
	p := core.NewProblem(s, x)
	p.Add(
		core.Unary(s, x, map[string]float64{"a": 1, "b": 9}),
		core.Binary(s, x, y, map[[2]string]float64{
			{"a", "a"}: 5, {"a", "b"}: 1, {"b", "a"}: 2, {"b", "b"}: 2,
		}),
		core.Unary(s, y, map[string]float64{"a": 5, "b": 5}),
	)
	return p
}

func TestExhaustiveFig1(t *testing.T) {
	res := Exhaustive(fig1())
	if res.Blevel != 7 {
		t.Fatalf("blevel = %v, want 7", res.Blevel)
	}
	if len(res.Best) != 1 {
		t.Fatalf("expected a single optimum, got %d", len(res.Best))
	}
	best := res.Best[0]
	if best.Value != 7 || best.Assignment.Label("X") != "a" || best.Assignment.Label("Y") != "b" {
		t.Fatalf("best = %v at %v, want 7 at X=a,Y=b", best.Value, best.Assignment)
	}
	if res.Stats.Nodes != 4 {
		t.Errorf("nodes = %d, want 4", res.Stats.Nodes)
	}
}

func TestBranchAndBoundFig1(t *testing.T) {
	res := BranchAndBound(fig1())
	if res.Blevel != 7 {
		t.Fatalf("blevel = %v, want 7", res.Blevel)
	}
	if len(res.Best) != 1 || res.Best[0].Assignment.Label("Y") != "b" {
		t.Fatalf("best = %+v", res.Best)
	}
}

func TestEliminateFig1(t *testing.T) {
	res := Eliminate(fig1())
	if res.Blevel != 7 {
		t.Fatalf("blevel = %v, want 7", res.Blevel)
	}
	// The frontier is over con = {X}: the single best is X=a at 7.
	if len(res.Best) != 1 || res.Best[0].Assignment.Label("X") != "a" || res.Best[0].Value != 7 {
		t.Fatalf("best = %+v", res.Best)
	}
	if res.Stats.TablesBuilt == 0 {
		t.Error("elimination should build tables")
	}
}

func TestLocalSearchFig1(t *testing.T) {
	res := LocalSearch(fig1(), WithSeed(3), WithRestarts(4))
	if res.Blevel != 7 {
		t.Fatalf("blevel = %v, want 7 (tiny problem must be solved exactly)", res.Blevel)
	}
}

func TestSolversAgreeOnRandomFuzzy(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p, err := workload.RandomFuzzySCSP(workload.SCSPParams{
			Vars: 5, DomainSize: 3, Density: 0.6, Tightness: 0.7, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ex := Exhaustive(p)
		bb := BranchAndBound(p)
		ve := Eliminate(p)
		if ex.Blevel != bb.Blevel {
			t.Errorf("seed %d: B&B blevel %v != exhaustive %v", seed, bb.Blevel, ex.Blevel)
		}
		if ex.Blevel != ve.Blevel {
			t.Errorf("seed %d: VE blevel %v != exhaustive %v", seed, ve.Blevel, ex.Blevel)
		}
		if p.Blevel() != ex.Blevel {
			t.Errorf("seed %d: problem blevel %v != exhaustive %v", seed, p.Blevel(), ex.Blevel)
		}
		ls := LocalSearch(p, WithSeed(seed))
		sr := p.Space().Semiring()
		if !sr.Leq(ls.Blevel, ex.Blevel) {
			t.Errorf("seed %d: local search blevel %v exceeds exact %v", seed, ls.Blevel, ex.Blevel)
		}
	}
}

func TestSolversAgreeOnRandomWeighted(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 4, DomainSize: 4, Density: 0.5, Tightness: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ex := Exhaustive(p)
		bb := BranchAndBound(p)
		ve := Eliminate(p)
		noPrune := BranchAndBound(p, WithoutPruning())
		if ex.Blevel != bb.Blevel || ex.Blevel != ve.Blevel || ex.Blevel != noPrune.Blevel {
			t.Errorf("seed %d: blevels diverge: ex=%v bb=%v ve=%v nop=%v",
				seed, ex.Blevel, bb.Blevel, ve.Blevel, noPrune.Blevel)
		}
		if bb.Stats.Nodes > noPrune.Stats.Nodes {
			t.Errorf("seed %d: pruning expanded more nodes (%d) than brute force (%d)",
				seed, bb.Stats.Nodes, noPrune.Stats.Nodes)
		}
	}
}

func TestBranchAndBoundPrunes(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 4, Density: 0.8, Tightness: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned := BranchAndBound(p)
	brute := BranchAndBound(p, WithoutPruning())
	if pruned.Stats.Prunes == 0 {
		t.Error("expected pruning on a tight weighted problem")
	}
	if pruned.Stats.Nodes >= brute.Stats.Nodes {
		t.Errorf("pruned nodes %d should be < brute nodes %d", pruned.Stats.Nodes, brute.Stats.Nodes)
	}
	if pruned.Blevel != brute.Blevel {
		t.Errorf("pruning changed the blevel: %v vs %v", pruned.Blevel, brute.Blevel)
	}
}

func TestEliminateChainScalesPastSearchLimits(t *testing.T) {
	// A 14-variable chain with domain 4 has 4^14 ≈ 2.7e8 assignments —
	// hopeless for enumeration, trivial for elimination (width 1).
	p, err := workload.ChainWeightedSCSP(14, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := Eliminate(p)
	if res.Blevel < 0 || len(res.Best) == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	// Cross-check on a chain small enough to enumerate.
	small, err := workload.ChainWeightedSCSP(6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Eliminate(small).Blevel, Exhaustive(small).Blevel; got != want {
		t.Errorf("chain blevel: VE %v != exhaustive %v", got, want)
	}
}

func TestMultipleOptima(t *testing.T) {
	s := core.NewSpace[float64](semiring.Fuzzy{})
	x := s.AddVariable("x", core.LabelDomain("a", "b", "c"))
	p := core.NewProblem(s, x)
	p.Add(core.Unary(s, x, map[string]float64{"a": 0.9, "b": 0.9, "c": 0.1}))
	for _, res := range []Result[float64]{Exhaustive(p), BranchAndBound(p), Eliminate(p)} {
		if res.Blevel != 0.9 {
			t.Fatalf("blevel = %v, want 0.9", res.Blevel)
		}
		if len(res.Best) != 2 {
			t.Fatalf("expected both optima, got %d: %+v", len(res.Best), res.Best)
		}
	}
}

func TestMaxBestCap(t *testing.T) {
	s := core.NewSpace[float64](semiring.Fuzzy{})
	x := s.AddVariable("x", core.IntDomain(0, 9))
	p := core.NewProblem(s, x)
	p.Add(core.Unary(s, x, map[string]float64{})) // all One: 10 optima
	res := Exhaustive(p, WithMaxBest(3))
	if len(res.Best) != 3 {
		t.Fatalf("got %d solutions, want capped 3", len(res.Best))
	}
	if res.Blevel != 1 {
		t.Fatalf("blevel = %v, want 1", res.Blevel)
	}
}

func TestParetoFrontierOnProductSemiring(t *testing.T) {
	type pv = semiring.Pair[float64, float64]
	sr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Probabilistic{})
	s := core.NewSpace[pv](sr)
	x := s.AddVariable("x", core.IntDomain(0, 2))
	p := core.NewProblem(s, x)
	// x=0: cost 0, reliability 0.5; x=1: cost 2, rel 0.75; x=2: cost 4, rel 1.
	p.Add(core.NewConstraint(s, []core.Variable{x}, func(a core.Assignment) pv {
		return semiring.P(a.Num(x)*2, 0.5+a.Num(x)*0.25)
	}))
	for _, res := range []Result[pv]{Exhaustive(p), BranchAndBound(p)} {
		if len(res.Best) != 3 {
			t.Fatalf("Pareto frontier should hold all 3 incomparable points, got %d", len(res.Best))
		}
		if res.Blevel.First != 0 || res.Blevel.Second != 1 {
			t.Fatalf("blevel = %v, want ideal point (0,1)", res.Blevel)
		}
	}
}

func TestDominatedPointExcludedFromFrontier(t *testing.T) {
	type pv = semiring.Pair[float64, float64]
	sr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Probabilistic{})
	s := core.NewSpace[pv](sr)
	x := s.AddVariable("x", core.IntDomain(0, 2))
	p := core.NewProblem(s, x)
	// x=1 (cost 5, rel 0.4) is dominated by x=0 (cost 1, rel 0.9).
	points := []pv{semiring.P(1.0, 0.9), semiring.P(5.0, 0.4), semiring.P(9.0, 0.95)}
	p.Add(core.NewConstraint(s, []core.Variable{x}, func(a core.Assignment) pv {
		return points[int(a.Num(x))]
	}))
	res := Exhaustive(p)
	if len(res.Best) != 2 {
		t.Fatalf("frontier size = %d, want 2 (dominated point excluded): %+v", len(res.Best), res.Best)
	}
	for _, sol := range res.Best {
		if sol.Assignment.Label("x") == "1" {
			t.Error("dominated assignment x=1 must not be on the frontier")
		}
	}
}

func TestInconsistentProblemYieldsEmptyFrontier(t *testing.T) {
	s := core.NewSpace[bool](semiring.Classical{})
	x := s.AddVariable("x", core.IntDomain(0, 1))
	p := core.NewProblem(s, x)
	p.Add(core.Unary(s, x, map[string]bool{"0": false, "1": false}))
	for _, res := range []Result[bool]{Exhaustive(p), BranchAndBound(p), Eliminate(p)} {
		if res.Blevel {
			t.Fatal("blevel should be false")
		}
		if len(res.Best) != 0 {
			t.Fatalf("inconsistent problem should have empty frontier, got %+v", res.Best)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := workload.RandomFuzzySCSP(workload.SCSPParams{Vars: 0, DomainSize: 2}); err == nil {
		t.Error("expected error for zero vars")
	}
	if _, err := workload.RandomWeightedSCSP(workload.SCSPParams{Vars: 2, DomainSize: 2, Density: 1.5}); err == nil {
		t.Error("expected error for bad density")
	}
	if _, err := workload.ChainWeightedSCSP(0, 2, 1); err == nil {
		t.Error("expected error for zero-length chain")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	params := workload.SCSPParams{Vars: 4, DomainSize: 3, Density: 0.5, Tightness: 0.5, Seed: 42}
	p1, _ := workload.RandomFuzzySCSP(params)
	p2, _ := workload.RandomFuzzySCSP(params)
	if Exhaustive(p1).Blevel != Exhaustive(p2).Blevel {
		t.Error("same seed must generate the same problem")
	}
	params.Seed = 43
	p3, _ := workload.RandomFuzzySCSP(params)
	// Not a hard guarantee, but with 5 vars the chance of equal
	// blevels across seeds is small; treat equality as suspicious
	// only if the whole solution sets match too.
	_ = p3
}

func TestLookaheadSoundAndTighter(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 7, DomainSize: 3, Density: 0.6, Tightness: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain := BranchAndBound(p)
		look := BranchAndBound(p, WithLookahead())
		if plain.Blevel != look.Blevel {
			t.Errorf("seed %d: lookahead changed blevel: %v vs %v",
				seed, look.Blevel, plain.Blevel)
		}
		if look.Stats.Nodes > plain.Stats.Nodes {
			t.Errorf("seed %d: lookahead expanded more nodes (%d > %d)",
				seed, look.Stats.Nodes, plain.Stats.Nodes)
		}
		// Same optimal frontier values.
		if len(plain.Best) > 0 && len(look.Best) > 0 &&
			plain.Best[0].Value != look.Best[0].Value {
			t.Errorf("seed %d: best values differ", seed)
		}
	}
}

func TestLookaheadOnFuzzy(t *testing.T) {
	p, err := workload.RandomFuzzySCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 3, Density: 0.7, Tightness: 0.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := BranchAndBound(p, WithLookahead()).Blevel, Exhaustive(p).Blevel; got != want {
		t.Errorf("lookahead fuzzy blevel %v != exact %v", got, want)
	}
}

func TestDegreeOrderingSoundAndEffective(t *testing.T) {
	improved := 0
	for seed := int64(1); seed <= 10; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 8, DomainSize: 3, Density: 0.4, Tightness: 0.95, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain := BranchAndBound(p)
		ordered := BranchAndBound(p, WithDegreeOrdering())
		if plain.Blevel != ordered.Blevel {
			t.Errorf("seed %d: ordering changed the blevel: %v vs %v",
				seed, ordered.Blevel, plain.Blevel)
		}
		if len(plain.Best) > 0 && len(ordered.Best) > 0 &&
			plain.Best[0].Value != ordered.Best[0].Value {
			t.Errorf("seed %d: best values differ", seed)
		}
		if ordered.Stats.Nodes < plain.Stats.Nodes {
			improved++
		}
	}
	if improved == 0 {
		t.Error("degree ordering never reduced nodes across 10 seeds")
	}
}

func TestDegreeOrderingComposesWithLookahead(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 7, DomainSize: 3, Density: 0.5, Tightness: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Exhaustive(p).Blevel
	got := BranchAndBound(p, WithDegreeOrdering(), WithLookahead())
	if got.Blevel != want {
		t.Errorf("combined options blevel %v != exact %v", got.Blevel, want)
	}
}

// assertSameResult fails unless the two results carry the same blevel
// and the same frontier, element for element, in the same order.
func assertSameResult[T any](t *testing.T, sr semiring.Semiring[T], label string, want, got Result[T]) {
	t.Helper()
	if !sr.Eq(want.Blevel, got.Blevel) {
		t.Fatalf("%s: blevel %s, want %s", label, sr.Format(got.Blevel), sr.Format(want.Blevel))
	}
	if len(want.Best) != len(got.Best) {
		t.Fatalf("%s: frontier size %d, want %d", label, len(got.Best), len(want.Best))
	}
	for i := range want.Best {
		if !sr.Eq(want.Best[i].Value, got.Best[i].Value) {
			t.Fatalf("%s: frontier[%d] value %s, want %s",
				label, i, sr.Format(got.Best[i].Value), sr.Format(want.Best[i].Value))
		}
		wa, ga := want.Best[i].Assignment, got.Best[i].Assignment
		if len(wa) != len(ga) {
			t.Fatalf("%s: frontier[%d] assignment size %d, want %d", label, i, len(ga), len(wa))
		}
		for v, dv := range wa {
			if ga[v].Label != dv.Label {
				t.Fatalf("%s: frontier[%d] %s=%s, want %s", label, i, v, ga[v].Label, dv.Label)
			}
		}
	}
}

// TestWithPropagationMatchesPlain checks that propagation-seeded
// search returns the same result as plain search on carriers whose
// Plus/Times/Div are floating-point exact (integer-valued weighted
// costs; fuzzy min/max).
func TestWithPropagationMatchesPlain(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		params := workload.SCSPParams{Vars: 7, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: seed}
		wp, err := workload.RandomWeightedSCSP(params)
		if err != nil {
			t.Fatal(err)
		}
		plain := BranchAndBound(wp)
		for _, opts := range [][]Option{
			{WithPropagation(0)},
			{WithPropagation(0), WithLookahead()},
		} {
			prop := BranchAndBound(wp, opts...)
			assertSameResult[float64](t, semiring.Weighted{}, fmt.Sprintf("weighted/seed=%d", seed), plain, prop)
		}

		fp, err := workload.RandomFuzzySCSP(params)
		if err != nil {
			t.Fatal(err)
		}
		plainF := BranchAndBound(fp)
		propF := BranchAndBound(fp, WithPropagation(0), WithLookahead())
		assertSameResult[float64](t, semiring.Fuzzy{}, fmt.Sprintf("fuzzy/seed=%d", seed), plainF, propF)
	}
}

// TestPropagateDeterministicOrder guards the fix for the map-ordered
// unary sweep: repeated runs must produce bit-identical c∅ and the
// same rebuilt constraint sequence (fractional fuzzy values make any
// fold-order change visible in the floats).
func TestPropagateDeterministicOrder(t *testing.T) {
	p, err := workload.RandomFuzzySCSP(workload.SCSPParams{
		Vars: 8, DomainSize: 3, Density: 0.6, Tightness: 0.9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, refCzero, _ := Propagate(p, 0)
	refCs := ref.Constraints()
	for i := 0; i < 10; i++ {
		out, czero, _ := Propagate(p, 0)
		if czero != refCzero {
			t.Fatalf("run %d: c∅ = %v, want %v", i, czero, refCzero)
		}
		cs := out.Constraints()
		if len(cs) != len(refCs) {
			t.Fatalf("run %d: %d constraints, want %d", i, len(cs), len(refCs))
		}
		for k := range cs {
			if !core.Eq(cs[k], refCs[k]) {
				t.Fatalf("run %d: constraint %d differs from reference", i, k)
			}
		}
	}
}

// TestBranchAndBoundInnerLoopAllocFree is the indexed-evaluation
// acceptance check: once the frontier cap is saturated, re-running
// the full search on an extensional problem performs zero heap
// allocations — every node works on the in-place digit vector through
// stride-indexed tables.
func TestBranchAndBoundInnerLoopAllocFree(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 8, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	pl := newPlan(p, &cfg)
	s := newSearch(pl, newDigitFrontier[float64](pl.sr, cfg.maxBest))
	run := func() {
		s.blevel = pl.sr.Zero()
		for i := range s.digits {
			s.digits[i] = 0
		}
		s.run(0, pl.rootBound)
	}
	// Warm until the frontier holds its full complement of co-optimal
	// snapshots; afterwards every offer is either dominated or blocked
	// by the cap, and displaced-buffer recycling covers the rest.
	for i := 0; i < 32; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("inner B&B loop allocates %v per run, want 0", avg)
	}
}

// TestEliminateAllocsBounded asserts the Combiner-based elimination
// stays within a small allocation budget: two materialised tables per
// round plus constant bookkeeping, instead of the pairwise fold's
// per-pair intermediates and per-table odometer/stride slices.
func TestEliminateAllocsBounded(t *testing.T) {
	p, err := workload.ChainWeightedSCSP(12, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Eliminate(p)
	avg := testing.AllocsPerRun(10, func() {
		got := Eliminate(p)
		if got.Blevel != want.Blevel {
			t.Fatalf("blevel drifted: %v != %v", got.Blevel, want.Blevel)
		}
	})
	// Measured ~265 allocs for 11 elimination rounds on this chain
	// (table+scope+stride per materialised table, min-degree scope
	// walks, problem/result bookkeeping); the pairwise-fold seed
	// implementation measured ~1108. Assert with headroom so the
	// bound flags regressions, not noise.
	const limit = 400
	if avg > limit {
		t.Fatalf("Eliminate allocates %v per run, want ≤ %d", avg, limit)
	}
}

// assertSameFrontierSet fails unless the two results carry the same
// blevel and the same frontier as a multiset of (labels, value): the
// check for searches that visit complete assignments in different
// orders and so admit the same optima in a different sequence.
func assertSameFrontierSet[T any](t *testing.T, sr semiring.Semiring[T], label string, want, got Result[T]) {
	t.Helper()
	if !sr.Eq(want.Blevel, got.Blevel) {
		t.Fatalf("%s: blevel %s, want %s", label, sr.Format(got.Blevel), sr.Format(want.Blevel))
	}
	if len(want.Best) != len(got.Best) {
		t.Fatalf("%s: frontier size %d, want %d", label, len(got.Best), len(want.Best))
	}
	byLabels := make(map[string]T, len(want.Best))
	for _, s := range want.Best {
		byLabels[labelsKey(s.Assignment)] = s.Value
	}
	for _, s := range got.Best {
		k := labelsKey(s.Assignment)
		v, ok := byLabels[k]
		if !ok {
			t.Fatalf("%s: frontier holds %s → %s, not an expected optimum", label, k, sr.Format(s.Value))
		}
		if !sr.Eq(v, s.Value) {
			t.Fatalf("%s: frontier %s → %s, want %s", label, k, sr.Format(s.Value), sr.Format(v))
		}
		delete(byLabels, k)
	}
}

// labelsKey renders an assignment as its sorted var=label pairs.
func labelsKey(a core.Assignment) string {
	parts := make([]string, 0, len(a))
	for v, dv := range a {
		parts = append(parts, string(v)+"="+dv.Label)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// bbMatchesExhaustive checks branch and bound against the exhaustive
// reference on p. With the default options both searches visit
// complete assignments in the same lexicographic order of the
// declared variables, so the frontiers must agree element for
// element; lookahead with degree ordering visits in another order,
// so its frontier must agree as a multiset.
func bbMatchesExhaustive[T any](t *testing.T, sr semiring.Semiring[T], name string, p *core.Problem[T], extra ...Option) {
	t.Helper()
	want := Exhaustive(p, extra...)
	assertSameResult(t, sr, name+"/default", want, BranchAndBound(p, extra...))
	shaped := BranchAndBound(p, append([]Option{WithLookahead(), WithDegreeOrdering()}, extra...)...)
	assertSameFrontierSet(t, sr, name+"/lookahead+degree", want, shaped)
}

// ulpProbabilistic compares probabilistic values to within a few ulps.
// Branch and bound folds each constraint in at the depth where its
// scope is complete, Exhaustive folds them in declaration order, and
// a rounding × makes the two products differ in the last bits.
type ulpProbabilistic struct{ semiring.Probabilistic }

func (ulpProbabilistic) Eq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-14*math.Max(math.Abs(a), math.Abs(b))
}

// TestBranchAndBoundMatchesExhaustiveAllSemirings is the property
// suite over every shipped semiring: on random workload instances,
// branch and bound returns the exhaustive blevel and the same
// frontier. Values are compared bit for bit on every carrier whose ×
// is exact, and to within ulps on the probabilistic one. The
// partially ordered instances (set, product) use a MaxBest far above
// any reachable frontier width so the cap never binds and the
// frontier is the full antichain.
func TestBranchAndBoundMatchesExhaustiveAllSemirings(t *testing.T) {
	base := workload.SCSPParams{Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.7}
	for seed := int64(1); seed <= 4; seed++ {
		p := base
		p.Seed = seed

		wp, err := workload.RandomSCSP(p, semiring.Weighted{}, func(rng *rand.Rand) float64 {
			return float64(1 + rng.Intn(20))
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[float64](t, semiring.Weighted{}, fmt.Sprintf("weighted/seed=%d", seed), wp)

		bsr := semiring.NewBoundedWeighted(50)
		bp, err := workload.RandomSCSP(p, bsr, func(rng *rand.Rand) float64 {
			return float64(1 + rng.Intn(20))
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[float64](t, bsr, fmt.Sprintf("bounded/seed=%d", seed), bp)

		fp, err := workload.RandomSCSP(p, semiring.Fuzzy{}, func(rng *rand.Rand) float64 {
			return float64(rng.Intn(100)) / 100
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[float64](t, semiring.Fuzzy{}, fmt.Sprintf("fuzzy/seed=%d", seed), fp)

		pp, err := workload.RandomSCSP(p, semiring.Probabilistic{}, func(rng *rand.Rand) float64 {
			return 0.5 + float64(rng.Intn(50))/100
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[float64](t, ulpProbabilistic{}, fmt.Sprintf("probabilistic/seed=%d", seed), pp)

		cp, err := workload.RandomSCSP(p, semiring.Classical{}, func(rng *rand.Rand) bool {
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[bool](t, semiring.Classical{}, fmt.Sprintf("classical/seed=%d", seed), cp)

		ssr := semiring.NewSet("read", "write", "admin")
		sp, err := workload.RandomSCSP[semiring.Bitset](p, ssr, func(rng *rand.Rand) semiring.Bitset {
			return semiring.Bitset(rng.Intn(8))
		})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[semiring.Bitset](t, ssr, fmt.Sprintf("set/seed=%d", seed), sp, WithMaxBest(1<<20))

		psr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Fuzzy{})
		prodp, err := workload.RandomSCSP[semiring.Pair[float64, float64]](p, psr,
			func(rng *rand.Rand) semiring.Pair[float64, float64] {
				return semiring.P(float64(rng.Intn(10)), float64(rng.Intn(100))/100)
			})
		if err != nil {
			t.Fatal(err)
		}
		bbMatchesExhaustive[semiring.Pair[float64, float64]](t, psr, fmt.Sprintf("product/seed=%d", seed), prodp, WithMaxBest(1<<20))
	}
}
