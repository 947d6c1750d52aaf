package cache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
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
	c.Put(TierSearch, b, "b")
	if _, ok := c.Get(TierSearch, a); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(TierSearch, b); !ok {
		t.Fatal("newest entry evicted")
	}
	st := c.Snapshot()
	if st.Search.Evictions != 1 {
		t.Fatalf("search evictions = %d, want 1", st.Search.Evictions)
	}
}

func TestStatsCount(t *testing.T) {
	c := New(64)
	c.Get(TierSearch, key("a"))
	c.Put(TierSearch, key("a"), 1)
	c.Get(TierSearch, key("a"))
	c.Get(TierSearch, key("a"))
	st := c.Snapshot()
	if st.Search.Hits != 2 || st.Search.Misses != 1 {
		t.Fatalf("search stats %+v, want 2 hits / 1 miss", st.Search)
	}
	for tier, label := range map[Tier]string{TierSearch: "search", TierTables: "tables", TierFixpoint: "fixpoint"} {
		if got := tier.String(); got != label {
			t.Fatalf("tier label %q, want %q", got, label)
		}
	}
	for _, retired := range []Tier{TierTables, TierFixpoint} {
		if st := c.TierStats(retired); st != (TierStats{}) {
			t.Fatalf("retired %s tier counts %+v, want zeros", retired, st)
		}
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

// TestConcurrentAccess hammers one cache from many goroutines across
// keys; run under -race it is the package's data-race witness for the
// sharded lock discipline.
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
				if v, ok := c.Get(TierSearch, k); ok {
					if v.(int) < 0 {
						t.Error("corrupt value")
						return
					}
				} else {
					c.Put(TierSearch, k, i)
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
	c.Put(TierSearch, k, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					c.Put(TierSearch, k, i)
				} else if v, ok := c.Get(TierSearch, k); !ok || v.(int) < 0 {
					t.Errorf("lost or corrupt value %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAdmitOnSecondSighting: a key is not admitted the first time it
// is offered and is admitted every time after, while it keeps its
// doorkeeper slot.
func TestAdmitOnSecondSighting(t *testing.T) {
	c := New(64)
	k := key("a")
	if c.Admit(k) {
		t.Fatal("first sighting admitted")
	}
	for i := 0; i < 3; i++ {
		if !c.Admit(k) {
			t.Fatalf("sighting %d not admitted", i+2)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Admit stored entries: Len = %d", c.Len())
	}
}

// slotMates returns n distinct keys that share one doorkeeper slot.
func slotMates(t *testing.T, c *Cache, n int) []Key {
	t.Helper()
	first := key("mate0")
	want, _ := c.slot(first)
	keys := []Key{first}
	for i := 1; i < 100000 && len(keys) < n; i++ {
		k := key(fmt.Sprintf("mate%d", i))
		if s, _ := c.slot(k); s == want {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d slot-colliding keys, want %d", len(keys), n)
	}
	return keys
}

// TestAdmitCollisionOnlyDelays: two keys that share a slot overwrite
// each other's sighting, so each needs two sightings in a row to be
// admitted; a third, never-seen key in the same slot is never
// admitted on its first sighting.
func TestAdmitCollisionOnlyDelays(t *testing.T) {
	c := New(16)
	keys := slotMates(t, c, 3)
	a, b, unseen := keys[0], keys[1], keys[2]
	steps := []struct {
		k    Key
		name string
		want bool
	}{
		{a, "a", false},
		{b, "b", false}, // evicts a's sighting
		{a, "a", false}, // so a's second sighting is delayed
		{a, "a", true},
		{unseen, "unseen", false},
		{b, "b", false}, // the unseen key evicted b's sighting too
		{b, "b", true},
	}
	for i, st := range steps {
		if got := c.Admit(st.k); got != st.want {
			t.Fatalf("step %d: Admit(%s) = %v, want %v", i, st.name, got, st.want)
		}
	}
}

func TestNilCacheAdmitsNothing(t *testing.T) {
	var c *Cache
	for i := 0; i < 3; i++ {
		if c.Admit(key("a")) {
			t.Fatal("nil cache admitted a key")
		}
	}
}

// TestAdmitTableIsFixedSize offers a million distinct keys: the
// doorkeeper keeps its size, and admission stores nothing.
func TestAdmitTableIsFixedSize(t *testing.T) {
	c := New(4096)
	slots, capacity := len(c.seen), cap(c.seen)
	var k Key
	admitted := 0
	for i := uint64(0); i < 1_000_000; i++ {
		// Distinct keys without hashing: the counter, spread by a
		// multiplicative mix, fills both the tag and the slot bytes.
		binary.LittleEndian.PutUint64(k[:8], i)
		binary.LittleEndian.PutUint64(k[8:16], i*0x9e3779b97f4a7c15)
		if c.Admit(k) {
			admitted++
		}
	}
	if admitted != 0 {
		t.Errorf("%d distinct keys admitted on first sighting", admitted)
	}
	if len(c.seen) != slots || cap(c.seen) != capacity {
		t.Errorf("doorkeeper grew from %d/%d to %d/%d slots", slots, capacity, len(c.seen), cap(c.seen))
	}
	if c.Len() != 0 {
		t.Errorf("admission stored %d entries", c.Len())
	}
}

// TestConcurrentAdmitGetPut drives the admission protocol the broker
// uses — Get, then Admit on a miss, then Put when admitted — from many
// goroutines over shared keys; under -race it witnesses that Admit is
// safe against concurrent Admit, Get and Put. Every key repeats and
// has a doorkeeper slot of its own, so every key ends up stored.
func TestConcurrentAdmitGetPut(t *testing.T) {
	const keys = 64
	c := New(1024)
	var ks []Key
	taken := map[*atomic.Uint64]bool{}
	for n := 0; len(ks) < keys; n++ {
		k := key(fmt.Sprintf("k%d", n))
		if s, _ := c.slot(k); !taken[s] {
			taken[s] = true
			ks = append(ks, k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n := (g*13 + i) % keys
				k := ks[n]
				if v, ok := c.Get(TierSearch, k); ok {
					if v.(int) != n {
						t.Errorf("key %d holds %v", n, v)
						return
					}
				} else if c.Admit(k) {
					c.Put(TierSearch, k, n)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Len(); got != keys {
		t.Fatalf("Len = %d after every key repeated, want %d", got, keys)
	}
}
