package solver

import (
	"strconv"

	"softsoa/internal/cache"
	"softsoa/internal/core"
)

// PropagateCached is Propagate behind the cache's fixpoint tier: the
// (problem content, round cap) key memoises the rewritten problem,
// the c∅ bound and the run stats, so the negotiator's precheck shares
// one fixpoint per distinct store instead of recomputing it per
// request. The returned problem is shared on a hit and must be
// treated as read-only — every in-tree caller only builds evaluators
// over it. A nil cache falls through to Propagate.
func PropagateCached[T any](c *cache.Cache, p *core.Problem[T], maxRounds int) (*core.Problem[T], T, PropagationStats) {
	if c == nil {
		return Propagate(p, maxRounds)
	}
	rounds := maxRounds
	if rounds <= 0 {
		rounds = defaultPropRounds
	}
	key := cache.ProblemKey(p, "fixpoint", strconv.Itoa(rounds))
	if v, ok := c.Get(cache.TierFixpoint, key); ok {
		if fp, ok := v.(*fixpoint[T]); ok {
			return fp.prob, fp.czero, fp.stats
		}
	}
	prob, czero, stats := Propagate(p, rounds)
	c.Put(cache.TierFixpoint, key, &fixpoint[T]{prob: prob, czero: czero, stats: stats})
	return prob, czero, stats
}

// fixpoint is the fixpoint tier's cached value.
type fixpoint[T any] struct {
	prob  *core.Problem[T]
	czero T
	stats PropagationStats
}
