package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Tier partitions the cache by what kind of artifact an entry holds;
// hit/miss/evict statistics are kept per tier.
type Tier int

const (
	// TierTables holds compiled constraint tables (negotiation spaces,
	// offer/requirement constraints).
	TierTables Tier = iota
	// TierSearch holds search outcomes: negotiation and renegotiation
	// plans.
	TierSearch

	numTiers
)

// TierFixpoint named the tier of propagation fixpoints. The
// negotiator's precheck folds its c∅ directly now, so nothing is
// stored under it: TierStats reports zeros for it, and Get and Put
// must not be given it.
//
// Deprecated: kept only while the benchmark harness's traced daemon
// (_perfbench/tracedd) reads its counters; remove it with that read.
const TierFixpoint Tier = numTiers

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
	Tables TierStats
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
}

// New returns a cache bounded to roughly capacity entries (split
// evenly across shards, so the effective bound rounds up to a
// multiple of the shard count). A capacity <= 0 returns nil — the
// always-miss cache — so callers can thread a size straight through.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + numShards - 1) / numShards
	return &Cache{capPerShard: per}
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
	return Stats{
		Tables: c.TierStats(TierTables),
		Search: c.TierStats(TierSearch),
	}
}
