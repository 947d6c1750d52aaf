// Package cache is the broker's content-addressed solve cache: a
// bounded, sharded, concurrency-safe memo store keyed by canonical
// SHA-256 hashes of (program, store, semiring) content. The semiring
// semantics make negotiation safely memoisable — compilation and
// nmsccp outcomes are pure functions of their inputs — so a cache read
// can never change a computed result, only skip recomputing it.
//
// Entries are grouped into two tiers, mirroring the negotiation
// pipeline's two recomputation sinks:
//
//   - TierTables holds compiled constraint artifacts: the negotiator's
//     per-(offer, requirement) spaces and constraint tables, built once
//     per distinct QoS template instead of once per request.
//   - TierSearch holds search outcomes: full negotiation and
//     renegotiation plans, replayed instead of re-running nmsccp.
//
// The negotiator's c∅ precheck is not cached: one node-consistency
// fold over two unary tables (solver.NodeBound) costs less than
// hashing them for a key.
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
// negotiations on different keys rarely contend. Get/Put/Len/Stats on
// a nil *Cache are safe no-ops, letting callers thread an optional
// cache without nil checks.
package cache
