// Package store is the broker's durable state layer: a pluggable
// write-ahead log of state mutations plus periodic snapshots, so a
// crashed brokerd recovers every SLA, session, compliance history and
// breaker state it had acknowledged.
//
// The package deliberately knows nothing about the broker's types. A
// Record is an opaque (type, payload) pair stamped with a
// monotonically increasing sequence number; the broker serialises its
// mutations (register / negotiate / renegotiate / observe / compose)
// into records and replays the WAL tail through its own deterministic
// engine on startup — the same bit-exact machinery the flight recorder
// (internal/obs/journal) relies on. A snapshot is the broker's state,
// restored as it is: each SLA's binding and its store's raw bits.
//
// Two implementations ship:
//
//   - Memory keeps everything in RAM. It is the zero-dependency
//     default for tests and embedded brokers: recovery works within a
//     process lifetime, nothing survives it.
//   - File appends each record as one checksummed JSON line to
//     <dir>/wal.log, fsync'd before Append returns, and writes
//     snapshots atomically to <dir>/snapshot.json (write to a temp
//     file, fsync, rename, fsync the directory). On recovery a torn
//     or corrupt WAL tail — a crash mid-write, a bad sector — is
//     detected by checksum and truncated back to the last valid
//     record, with the number of discarded records reported so the
//     broker can count the warning.
//
// Durability contract: when Append returns nil the record has reached
// the disk (File) or the heap (Memory). WriteSnapshot makes every
// record with Seq <= the snapshot's sequence redundant; File resets
// the WAL afterwards, and a crash between the two steps is harmless
// because recovery skips WAL records the snapshot already covers.
//
// All state files are created and replaced exclusively through the
// atomic write helper in atomic.go; softsoa-lint's writecheck
// analyzer enforces that discipline for this package.
package store
