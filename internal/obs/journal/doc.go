// Package journal is the semantic flight recorder: a bounded,
// structured event stream capturing what the nmsccp machine and the
// solver actually did — not how long it took (that is internal/obs's
// job), but which transition rules fired, on which agents, with which
// store deltas and consistency levels, and which provider a
// composition bound at each stage.
//
// The paper's evaluation is entirely semantic: Examples 1-3 of Fig. 7
// are exact rule sequences with exact blevels. A journal makes the
// same evidence available for production negotiations: every
// transition carries the rule id (R1 Tell … R10 P-call, plus the
// timed tick), the acting sub-agent, the told/retracted constraint in
// canonical form, the blevel before and after, and a consistency
// flag. Journals contain no timestamps, so recording the same program
// with the same seed yields byte-identical JSONL — which is what
// makes cmd/softsoa-replay's golden-fixture verification possible.
//
// The package sits below the pure layers on purpose: it defines only
// plain record types and the Recorder interface, and imports no
// other softsoa package, so internal/sccp can emit events without
// the journal pulling
// effectful dependencies into the pure import closure (the
// determinism analyzer admits exactly this package there).
//
// Emitters hand over values, not text: a Transition carries its
// constraint and check as fmt.Stringers and its levels as raw
// float64s, a Search is a pointer-free value, and a segment's final
// store and replay Program are rendered on demand. A journal formats
// only when it is read (Events, Segments, WriteJSONL, WriteJSON),
// through the Format of the carrier it holds (SetSemiring), and the
// wire types TransitionRecord, SearchRecord and Segment are what it
// serves. The first read keeps the text it rendered in place of the
// values — segment programs, final stores and deferred runs,
// transition payloads — so a journal read again (a sink dumps an
// SLA's journal after every renegotiation) renders only what was
// recorded since. A journal read back with ReadJSONL carries literal
// text.
//
// A run need not be recorded transition by transition. The broker
// applies a negotiation's and a renegotiation's effects to the store
// directly and closes the segment with EndDeferredRun: the segment
// keeps its captured program inputs (a Run), the status, σ⇓∅ and one
// pointer-free event per transition the machine would record, so
// sequence numbers, ring wrap and drop accounting are those of a
// recorded run. The first read runs the machine once (Run.Replay) to
// derive those transitions and the final σ. A journal nobody reads
// never runs the machine.
//
// A Journal is an append-only ring: when the configured capacity is
// reached the oldest events are dropped and accounted for in
// Dropped(), optionally reported through an OnDrop hook (the broker
// feeds it into the journal_events_dropped_total counter). Segments
// subdivide a journal into independently replayable machine runs —
// one per provider negotiation, renegotiation, or recorded program —
// each carrying the nmsccp source, seed and fuel needed to re-execute
// it deterministically.
package journal
