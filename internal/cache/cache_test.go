package cache

import (
	"fmt"
	"sync"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

func key(s string) Key {
	h := NewHasher("test")
	h.Str(s)
	return h.Sum()
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(TierSearch, key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(TierSearch, key("a"), 42)
	v, ok := c.Get(TierSearch, key("a"))
	if !ok || v.(int) != 42 {
		t.Fatalf("got (%v,%v), want (42,true)", v, ok)
	}
	// Same key, different tier: distinct entries.
	if _, ok := c.Get(TierFixpoint, key("a")); ok {
		t.Fatal("tier leak: fixpoint hit for a search-tier entry")
	}
	c.Put(TierSearch, key("a"), 43)
	if v, _ := c.Get(TierSearch, key("a")); v.(int) != 43 {
		t.Fatalf("replace did not stick: got %v", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Put(TierSearch, key("a"), 1)
	if _, ok := c.Get(TierSearch, key("a")); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
	if New(0) != nil {
		t.Fatal("New(0) should return the nil always-miss cache")
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 → one entry per shard; two entries landing in the
	// same shard must evict the older one.
	c := New(16)
	var a, b Key
	a = key("x0")
	found := false
	for i := 1; i < 10000 && !found; i++ {
		b = key(fmt.Sprintf("x%d", i))
		if int(b[0])&(numShards-1) == int(a[0])&(numShards-1) {
			found = true
		}
	}
	if !found {
		t.Fatal("no shard-colliding key found")
	}
	c.Put(TierSearch, a, "a")
	c.Put(TierTables, b, "b")
	if _, ok := c.Get(TierSearch, a); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(TierTables, b); !ok {
		t.Fatal("newest entry evicted")
	}
	st := c.Snapshot()
	if st.Search.Evictions != 1 {
		t.Fatalf("search evictions = %d, want 1 (evicted entry counts under its own tier)", st.Search.Evictions)
	}
}

func TestStatsCount(t *testing.T) {
	c := New(64)
	c.Get(TierFixpoint, key("a"))
	c.Put(TierFixpoint, key("a"), 1)
	c.Get(TierFixpoint, key("a"))
	c.Get(TierFixpoint, key("a"))
	st := c.Snapshot()
	if st.Fixpoint.Hits != 2 || st.Fixpoint.Misses != 1 {
		t.Fatalf("fixpoint stats %+v, want 2 hits / 1 miss", st.Fixpoint)
	}
	if got := TierFixpoint.String(); got != "fixpoint" {
		t.Fatalf("tier label %q", got)
	}
}

func TestHasherFieldBoundaries(t *testing.T) {
	h1 := NewHasher("t")
	h1.Str("ab")
	h1.Str("c")
	h2 := NewHasher("t")
	h2.Str("a")
	h2.Str("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("length prefixing failed: concatenation aliased")
	}
	if NewHasher("x").Sum() == NewHasher("y").Sum() {
		t.Fatal("domain separation failed")
	}
}

func twoVarProblem(val float64) *core.Problem[float64] {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 2))
	y := s.AddVariable("y", core.IntDomain(0, 2))
	p := core.NewProblem(s, x)
	p.Add(core.NewConstraint(s, []core.Variable{x, y}, func(a core.Assignment) float64 {
		if a.Num(x) == a.Num(y) {
			return val
		}
		return 0
	}))
	return p
}

func TestProblemKeyContentAddressed(t *testing.T) {
	// Identical content from independent constructions hashes equal…
	if ProblemKey(twoVarProblem(3)) != ProblemKey(twoVarProblem(3)) {
		t.Fatal("equal problems hash apart")
	}
	// …and any content change (one table value) hashes apart.
	if ProblemKey(twoVarProblem(3)) == ProblemKey(twoVarProblem(4)) {
		t.Fatal("different tables hash equal")
	}
	// Tags discriminate.
	if ProblemKey(twoVarProblem(3), "a") == ProblemKey(twoVarProblem(3), "b") {
		t.Fatal("tags ignored")
	}
	if ProblemKey(twoVarProblem(3)) == ProblemKey(twoVarProblem(3), "a") {
		t.Fatal("tag presence ignored")
	}
}

// TestConcurrentAccess hammers one cache from many goroutines across
// tiers and keys; run under -race it is the package's data-race
// witness for the sharded lock discipline.
func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(fmt.Sprintf("k%d", (g*7+i)%200))
				tier := Tier(i % int(numTiers))
				if v, ok := c.Get(tier, k); ok {
					if v.(int) < 0 {
						t.Error("corrupt value")
						return
					}
				} else {
					c.Put(tier, k, i)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 128+numShards {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
	st := c.Snapshot()
	if st.Search.Hits+st.Search.Misses == 0 {
		t.Fatal("no search-tier traffic recorded")
	}
}

// TestConcurrentSameKeyReplace races Gets against Puts that replace
// one key's value in place, the pattern of two concurrent requests
// that both miss and both store the same result. Under -race it
// witnesses that Get reads the value under the shard lock.
func TestConcurrentSameKeyReplace(t *testing.T) {
	c := New(16)
	k := key("shared")
	c.Put(TierFixpoint, k, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					c.Put(TierFixpoint, k, i)
				} else if v, ok := c.Get(TierFixpoint, k); !ok || v.(int) < 0 {
					t.Errorf("lost or corrupt value %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
