package solver

import (
	"sync"
	"testing"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// TestPropagateCachedSharedFixpoint: the second fixpoint of identical
// content must come from the cache, bit-equal in c∅ and in the solve
// over the rewritten problem.
func TestPropagateCachedSharedFixpoint(t *testing.T) {
	sr := semiring.Weighted{}
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.7, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldProb, coldZ, coldStats := Propagate(p, 0)
	c := cache.New(64)
	p1, z1, s1 := PropagateCached(c, p, 0)
	p2, z2, s2 := PropagateCached(c, p, 0)
	if !sr.Eq(coldZ, z1) || !sr.Eq(z1, z2) {
		t.Fatalf("c∅ drift: cold %v, miss %v, hit %v", coldZ, z1, z2)
	}
	if s1 != coldStats || s2 != s1 {
		t.Fatalf("stats drift: cold %+v, miss %+v, hit %+v", coldStats, s1, s2)
	}
	if p2 != p1 {
		t.Fatal("fixpoint hit rebuilt the problem instead of sharing it")
	}
	st := c.TierStats(cache.TierFixpoint)
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("fixpoint tier stats %+v, want 1 miss / 1 hit", st)
	}
	assertSameResult(t, sr, "propagated-solve", BranchAndBound(coldProb), BranchAndBound(p1))
}

// TestPropagateCachedRaceStress hammers one fixpoint tier from
// concurrent propagations of several problems, the way concurrent
// negotiations share it; under -race this is the solver-side cache
// concurrency witness. Every c∅ must equal its cold reference.
func TestPropagateCachedRaceStress(t *testing.T) {
	sr := semiring.Weighted{}
	type tc struct {
		p     *core.Problem[float64]
		czero float64
	}
	var cases []tc
	for seed := int64(1); seed <= 4; seed++ {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, czero, _ := Propagate(p, 0)
		cases = append(cases, tc{p: p, czero: czero})
	}
	c := cache.New(8) // small: force concurrent eviction too
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := cases[(g+i)%len(cases)]
				if _, got, _ := PropagateCached(c, k.p, 0); !sr.Eq(got, k.czero) {
					t.Errorf("goroutine %d iter %d: cached fixpoint diverged", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
