package cache

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Tier partitions the cache by what kind of artifact an entry holds;
// hit/miss/evict statistics are kept per tier.
type Tier int

const (
	// TierSearch holds search outcomes: negotiation and renegotiation
	// plans.
	TierSearch Tier = iota

	numTiers
)

// Retired tiers. Nothing is stored under them: TierStats reports
// zeros for them, and Get and Put must not be given them.
//
// Deprecated: kept only while the benchmark harness's traced daemon
// (_perfbench/tracedd) reads their counters; remove them with that
// read.
const (
	// TierTables named the tier of compiled negotiation instances.
	// Each cold negotiation compiles its own instance now: the tier
	// hit almost never, and its entries crowded out plans.
	TierTables Tier = numTiers + iota
	// TierFixpoint named the tier of propagation fixpoints. The
	// negotiator's precheck folds its c∅ directly instead.
	TierFixpoint
)

// String returns the tier's metric label.
func (t Tier) String() string {
	switch t {
	case TierTables:
		return "tables"
	case TierFixpoint:
		return "fixpoint"
	case TierSearch:
		return "search"
	}
	return "unknown"
}

// TierStats is one tier's counters, read via Cache.TierStats.
type TierStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats is a point-in-time snapshot of every counter.
type Stats struct {
	Search TierStats
}

const numShards = 16

// entry is one cached value with the addressing needed to unlink it
// from its tier map on eviction.
type entry struct {
	tier Tier
	key  Key
	v    any
}

// shard is one lock domain: a per-tier key map plus a single recency
// list shared by the shard's tiers (the capacity bound is per shard,
// not per tier).
type shard struct {
	mu  sync.Mutex
	m   [numTiers]map[Key]*list.Element // guarded by mu
	lru *list.List                      // guarded by mu; front = most recent
}

type tierCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// Cache is a bounded, sharded, concurrency-safe memo store. The zero
// value is not usable; construct with New. A nil *Cache is a valid
// always-miss cache: every method is a nil-safe no-op.
type Cache struct {
	capPerShard int
	shards      [numShards]shard
	stats       [numTiers]tierCounters

	// seen is the admission doorkeeper (see Admit): a direct-mapped
	// table of key tags, its length a power of two. A slot holds the
	// tag of the last key that landed in it; zero means empty.
	seen []atomic.Uint64
}

// New returns a cache bounded to roughly capacity entries (split
// evenly across shards, so the effective bound rounds up to a
// multiple of the shard count). A capacity <= 0 returns nil — the
// always-miss cache — so callers can thread a size straight through.
// The admission doorkeeper gets one 8-byte slot per entry, rounded up
// to a power of two: a first sighting is forgotten once another key
// lands in its slot, so it outlives about a cache-full of later first
// sightings with odds 1/e. Four slots per entry measured higher peak
// RSS on a workload whose keys repeat far sooner than that.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + numShards - 1) / numShards
	slots := 1
	for slots < capacity {
		slots <<= 1
	}
	return &Cache{capPerShard: per, seen: make([]atomic.Uint64, slots)}
}

// slot returns key's doorkeeper slot and the tag it leaves there. The
// slot index and the tag come from disjoint bytes of the key; the tag
// has its low bit set so that no key matches an empty slot.
func (c *Cache) slot(key Key) (*atomic.Uint64, uint64) {
	idx := binary.LittleEndian.Uint64(key[8:16]) & uint64(len(c.seen)-1)
	return &c.seen[idx], binary.LittleEndian.Uint64(key[:8]) | 1
}

// Admit reports whether key has been seen before, and records this
// sighting. It is the admission check of a TinyLFU-style doorkeeper:
// a caller computes and stores a value only when Admit is true, so a
// key that comes once costs no cache memory, and one that comes again
// is stored on its second sighting. Two keys that share a slot evict
// each other's tags, which only delays their admission; an unseen key
// is admitted only if it matches the slot's whole tag, which for
// content hashes is a 2^-63 chance. The table never grows. Admit on a
// nil cache admits nothing.
//
//softsoa:hotpath
func (c *Cache) Admit(key Key) bool {
	if c == nil {
		return false
	}
	s, tag := c.slot(key)
	return s.Swap(tag) == tag
}

func (c *Cache) shardFor(key Key) *shard {
	return &c.shards[int(key[0])&(numShards-1)]
}

// Get returns the value stored under (tier, key) and refreshes its
// recency. The second result reports a hit. Lookups on the solve path
// happen once per request, before the search inner loop; the method
// itself stays allocation-free so callers inside annotated hot
// regions stay provably so.
//
//softsoa:hotpath
func (c *Cache) Get(tier Tier, key Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.m[tier][key]
	var v any
	if ok {
		sh.lru.MoveToFront(el)
		// Read the value under the lock: a concurrent Put of the same
		// key replaces it in place.
		v = el.Value.(*entry).v
	}
	sh.mu.Unlock()
	if !ok {
		c.stats[tier].misses.Add(1)
		return nil, false
	}
	c.stats[tier].hits.Add(1)
	return v, true
}

// Put stores v under (tier, key), replacing any previous value, and
// evicts least-recently-used entries (of any tier) past the shard's
// capacity. Values must be immutable or defensively copied by the
// caller: later Gets return the same reference.
func (c *Cache) Put(tier Tier, key Key, v any) {
	if c == nil {
		return
	}
	sh := c.shardFor(key)
	evicted := make([]Tier, 0, 1)
	sh.mu.Lock()
	if sh.lru == nil {
		sh.lru = list.New()
		for t := range sh.m {
			sh.m[t] = make(map[Key]*list.Element)
		}
	}
	if el, ok := sh.m[tier][key]; ok {
		el.Value.(*entry).v = v
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.m[tier][key] = sh.lru.PushFront(&entry{tier: tier, key: key, v: v})
	for sh.lru.Len() > c.capPerShard {
		back := sh.lru.Back()
		ev := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.m[ev.tier], ev.key)
		evicted = append(evicted, ev.tier)
	}
	sh.mu.Unlock()
	for _, t := range evicted {
		c.stats[t].evictions.Add(1)
	}
}

// Len returns the total number of entries across all shards and
// tiers.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.lru != nil {
			n += sh.lru.Len()
		}
		sh.mu.Unlock()
	}
	return n
}

// TierStats returns one tier's counters.
func (c *Cache) TierStats(t Tier) TierStats {
	if c == nil || t < 0 || t >= numTiers {
		return TierStats{}
	}
	return TierStats{
		Hits:      c.stats[t].hits.Load(),
		Misses:    c.stats[t].misses.Load(),
		Evictions: c.stats[t].evictions.Load(),
	}
}

// Snapshot returns every counter at once.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{Search: c.TierStats(TierSearch)}
}
