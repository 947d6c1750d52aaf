package solver

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// assertSameResult fails unless the two results carry the same blevel
// and the same frontier, element for element, in the same order.
// Nodes/Prunes are deliberately not compared: under WithWorkers they
// depend on bound visibility timing (identical modulo scheduling).
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

// seqParCase runs sequential and parallel branch and bound on the
// same problem under several worker counts and option sets, asserting
// identical results each time.
func seqParCase[T any](t *testing.T, sr semiring.Semiring[T], name string, p *core.Problem[T], extra ...Option) {
	t.Helper()
	optSets := [][]Option{
		nil,
		{WithLookahead(), WithDegreeOrdering()},
	}
	for oi, opts := range optSets {
		opts = append(append([]Option(nil), opts...), extra...)
		seq := BranchAndBound(p, append([]Option{WithWorkers(1)}, opts...)...)
		for _, workers := range []int{2, 3, 8} {
			par := BranchAndBound(p, append([]Option{WithWorkers(workers)}, opts...)...)
			assertSameResult(t, sr, fmt.Sprintf("%s/opts%d/workers=%d", name, oi, workers), seq, par)
		}
	}
}

// TestParallelEquivalenceAllSemirings is the sequential-vs-parallel
// property suite: random workload instances over every shipped
// semiring must produce identical Blevel and frontier under any
// worker count. The partially ordered instances (set, product) use a
// MaxBest far above any reachable frontier width so the cap never
// binds — the boundary of the byte-identical guarantee documented on
// WithWorkers.
func TestParallelEquivalenceAllSemirings(t *testing.T) {
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
		seqParCase[float64](t, semiring.Weighted{}, fmt.Sprintf("weighted/seed=%d", seed), wp)

		bsr := semiring.NewBoundedWeighted(50)
		bp, err := workload.RandomSCSP(p, bsr, func(rng *rand.Rand) float64 {
			return float64(1 + rng.Intn(20))
		})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[float64](t, bsr, fmt.Sprintf("bounded/seed=%d", seed), bp)

		fp, err := workload.RandomSCSP(p, semiring.Fuzzy{}, func(rng *rand.Rand) float64 {
			return float64(rng.Intn(100)) / 100
		})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[float64](t, semiring.Fuzzy{}, fmt.Sprintf("fuzzy/seed=%d", seed), fp)

		pp, err := workload.RandomSCSP(p, semiring.Probabilistic{}, func(rng *rand.Rand) float64 {
			return 0.5 + float64(rng.Intn(50))/100
		})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[float64](t, semiring.Probabilistic{}, fmt.Sprintf("probabilistic/seed=%d", seed), pp)

		cp, err := workload.RandomSCSP(p, semiring.Classical{}, func(rng *rand.Rand) bool {
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[bool](t, semiring.Classical{}, fmt.Sprintf("classical/seed=%d", seed), cp)

		ssr := semiring.NewSet("read", "write", "admin")
		sp, err := workload.RandomSCSP[semiring.Bitset](p, ssr, func(rng *rand.Rand) semiring.Bitset {
			return semiring.Bitset(rng.Intn(8))
		})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[semiring.Bitset](t, ssr, fmt.Sprintf("set/seed=%d", seed), sp, WithMaxBest(1<<20))

		psr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Fuzzy{})
		prodp, err := workload.RandomSCSP[semiring.Pair[float64, float64]](p, psr,
			func(rng *rand.Rand) semiring.Pair[float64, float64] {
				return semiring.P(float64(rng.Intn(10)), float64(rng.Intn(100))/100)
			})
		if err != nil {
			t.Fatal(err)
		}
		seqParCase[semiring.Pair[float64, float64]](t, psr, fmt.Sprintf("product/seed=%d", seed), prodp, WithMaxBest(1<<20))
	}
}

// TestParallelEquivalenceEdgeShapes covers the degenerate shapes the
// fan-out must not mishandle: no variables, one variable, and more
// workers than subtree tasks.
func TestParallelEquivalenceEdgeShapes(t *testing.T) {
	sr := semiring.Weighted{}

	s0 := core.NewSpace[float64](sr)
	p0 := core.NewProblem(s0)
	p0.Add(core.Constant(s0, 3))
	assertSameResult(t, sr, "no-vars", BranchAndBound(p0), BranchAndBound(p0, WithWorkers(4)))

	s1 := core.NewSpace[float64](sr)
	x := s1.AddVariable("x", core.IntDomain(0, 4))
	p1 := core.NewProblem(s1, x)
	p1.Add(core.Unary(s1, x, map[string]float64{"0": 2, "1": 1, "2": 7, "3": 1, "4": 9}))
	assertSameResult(t, sr, "one-var", BranchAndBound(p1), BranchAndBound(p1, WithWorkers(16)))
}

// TestParallelRaceStress hammers the shared incumbent bound: many
// workers over a problem whose subtrees finish at wildly different
// times, repeated to vary interleavings. Run under -race this is the
// shared bound's data-race test; the result must still equal the
// sequential one every iteration.
func TestParallelRaceStress(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 9, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := BranchAndBound(p)
	for i := 0; i < 8; i++ {
		par := BranchAndBound(p, WithWorkers(8))
		assertSameResult[float64](t, semiring.Weighted{}, fmt.Sprintf("iter=%d", i), seq, par)
	}
}

// TestWithPropagationMatchesPlain checks that propagation-seeded
// search returns the same result as plain search on carriers whose
// Plus/Times/Div are floating-point exact (integer-valued weighted
// costs; fuzzy min/max), sequential and parallel alike.
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
			{WithPropagation(0), WithWorkers(4)},
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

// TestWithWorkersSequentialPath: a worker count of 1 must take the
// plain sequential path: no scheduling machinery, so Nodes and Prunes
// are exactly the deterministic sequential counts and every scheduler
// counter stays zero.
func TestWithWorkersSequentialPath(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 8, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := BranchAndBound(p)
	got := BranchAndBound(p, WithWorkers(1))
	assertSameResult[float64](t, semiring.Weighted{}, "WithWorkers(1)", plain, got)
	if got.Stats.Nodes != plain.Stats.Nodes || got.Stats.Prunes != plain.Stats.Prunes {
		t.Errorf("nodes/prunes %d/%d, want sequential %d/%d",
			got.Stats.Nodes, got.Stats.Prunes, plain.Stats.Nodes, plain.Stats.Prunes)
	}
	if got.Stats.Workers != 1 || got.Stats.Tasks != 0 || got.Stats.Steals != 0 || got.Stats.Splits != 0 {
		t.Errorf("scheduler counters leaked: workers=%d tasks=%d steals=%d splits=%d",
			got.Stats.Workers, got.Stats.Tasks, got.Stats.Steals, got.Stats.Splits)
	}
}

// TestWithWorkersResolvesGOMAXPROCS: the canonical zero value must
// resolve to runtime.GOMAXPROCS(0) — reported in Stats.Workers — and
// still return the sequential result. Negative counts clamp to the
// same resolution.
func TestWithWorkersResolvesGOMAXPROCS(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 8, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	plain := BranchAndBound(p)
	for _, n := range []int{0, -3} {
		got := BranchAndBound(p, WithWorkers(n))
		assertSameResult[float64](t, semiring.Weighted{}, fmt.Sprintf("WithWorkers(%d)", n), plain, got)
		if got.Stats.Workers != want {
			t.Errorf("WithWorkers(%d): Stats.Workers = %d, want GOMAXPROCS %d", n, got.Stats.Workers, want)
		}
	}
}

// TestWorkStealingSkewedTreeStress drives the adaptive splitter hard:
// the root variable's unary makes all but one of its values
// prohibitively expensive, so the top-level split is worthless — all
// real work hides under one child — and hungry workers must keep
// re-stealing progressively deeper sibling ranges. Every iteration
// must reproduce the sequential result exactly, and across the
// iterations the scheduler must actually have split and stolen
// subtrees (the instance runs long enough that steal demand arises
// even on a single-CPU runner, via preemption).
func TestWorkStealingSkewedTreeStress(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 13, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Space()
	p.Add(core.Unary(s, s.Variables()[0], map[string]float64{"0": 0, "1": 8, "2": 8}))
	seq := BranchAndBound(p)
	var steals, splits int64
	for i := 0; i < 4; i++ {
		par := BranchAndBound(p, WithWorkers(8))
		assertSameResult[float64](t, semiring.Weighted{}, fmt.Sprintf("iter=%d", i), seq, par)
		if par.Stats.Workers != 8 {
			t.Fatalf("iter=%d: Stats.Workers = %d, want 8", i, par.Stats.Workers)
		}
		steals += par.Stats.Steals
		splits += par.Stats.Splits
	}
	if splits == 0 || steals == 0 {
		t.Errorf("no work was redistributed over 4 runs: steals=%d splits=%d", steals, splits)
	}
}

// TestHuntParkWakeup pins the scheduler into the workers >> cores
// regime the parking rework targets: 16 workers on a single
// GOMAXPROCS slot, where the pre-park hunt loop Gosched-spun through
// every hungry worker's time slice. Each iteration must terminate
// (parked workers are woken by every spill and by the final task's
// completion — a missed wake-up deadlocks the solve and fails the
// test by timeout) and must still reproduce the sequential result
// bit for bit.
func TestHuntParkWakeup(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 10, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := BranchAndBound(p)
	for i := 0; i < 8; i++ {
		par := BranchAndBound(p, WithWorkers(16))
		assertSameResult[float64](t, semiring.Weighted{}, fmt.Sprintf("iter=%d", i), seq, par)
	}
}
