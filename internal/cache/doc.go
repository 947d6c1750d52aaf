// Package cache is the broker's content-addressed solve cache: a
// bounded, sharded, concurrency-safe memo store keyed by canonical
// SHA-256 hashes of (program, store, semiring) content. The semiring
// semantics make negotiation safely memoisable — compilation and
// nmsccp outcomes are pure functions of their inputs — so a cache read
// can never change a computed result, only skip recomputing it.
//
// One tier remains, TierSearch: full negotiation and renegotiation
// plans, replayed instead of re-running nmsccp. The negotiator's
// compiled instances and its c∅ precheck are not cached: each cold
// run compiles its own instance, and one node-consistency fold over
// two unary tables (solver.NodeBound) costs less than hashing them
// for a key. TierTables and TierFixpoint are retired names whose
// counters read zero.
//
// Admission is on second sight, after TinyLFU's doorkeeper. Admit
// records a key's sighting in a fixed-size, direct-mapped table of
// 64-bit key tags and reports whether the key was already there;
// callers compute and store a value only when it was. A key that
// comes once therefore costs no cache memory and evicts nothing,
// which matters when most keys never repeat. Two keys that share a
// slot overwrite each other's tag, which only delays their
// admission. The table is sized from the capacity and never grows.
//
// Keys are computed with Hasher/ProblemKey over the same canonical
// renderings the flight recorder serialises (semiring Format,
// Constraint.String tables in mixed-radix order, synthesised nmsccp
// programs), so key determinism rides on the byte-stability already
// proven for replay. Two problems hash equal iff their canonical
// renderings are byte-equal; collisions between well-formed keys would
// require a SHA-256 collision.
//
// Eviction is LRU per shard: the capacity is split across 16 shards,
// each with its own mutex, map and recency list, so concurrent
// negotiations on different keys rarely contend. Get/Put/Admit/Len/
// Stats on a nil *Cache are safe no-ops (Admit admits nothing),
// letting callers thread an optional cache without nil checks.
package cache
