// Package broker implements the QoS broker/orchestrator of Fig. 6:
// the module between clients and providers that hosts a soft
// constraint solver and an nmsccp engine to negotiate Service Level
// Agreements (steps 1–5 of the paper's protocol), to select the best
// provider among those registered, and to compose pipelines of
// services optimising end-to-end QoS. The HTTP front-end in server.go
// exposes the same operations over XML, standing in for the SOAP/UDDI
// stack the paper assumes.
//
// # The v1 HTTP API
//
// The broker's surface is versioned under /v1. Resources are nouns;
// identifiers live in the path:
//
//	POST /v1/providers                        publish a QoS document (201)
//	GET  /v1/providers?query=<service>        discover providers for a service
//	POST /v1/negotiations                     negotiate an SLA (or 409 + failure report)
//	POST /v1/negotiations/{id}/renegotiate    relax a live agreement nonmonotonically
//	GET  /v1/negotiations/{id}/journal        flight-recorder journal (JSON; ?format=jsonl)
//	GET  /v1/slas/{id}                        current agreement for an SLA
//	GET  /v1/slas/{id}/compliance             compliance summary for an SLA
//	POST /v1/observations                     record a measured service level
//	POST /v1/compositions                     solve a pipeline composition
//	GET  /v1/health                           per-provider circuit-breaker states
//	GET  /v1/metrics                          Prometheus text-format metrics
//	GET  /v1/debug/traces                     recent request traces (JSON)
//
// Every request is traced: the server adopts the client's
// X-Softsoa-Trace header (minting an ID when absent), echoes it on
// the response, and records the pipeline stages — parse, per-provider
// c∅ precheck, nmsccp run (the direct application), SLA commit — as
// spans in a ring buffer served by GET /v1/debug/traces. Metrics
// cover per-route HTTP traffic, negotiation outcomes and agreed
// levels, composition solve work and time, breaker transitions, live
// SLAs, observations and failovers; see the README's Observability
// section for the catalogue.
//
// # Negotiation without the machine
//
// A negotiation is the two straight-line agents of Example 1 and a
// renegotiation one retract followed by one checked tell, so the
// broker applies their effects with the store's own Tell and Retract,
// in the order the machine's seed-1 schedule applies them, and
// evaluates the checked ask or tell: same status, σ bit for bit, σ⇓∅
// and resources as the machine, which direct_test.go checks. A
// journal segment keeps the run's captured inputs, its outcome and one
// pointer-free event slot per transition the machine records, and
// runs the machine once, when the journal is first read, to derive
// those transitions and the final σ (journalprog.go). The session
// keeps the SLA view of each agreement, computed once.
//
// # Options convention
//
// Constructors take variadic functional options, one option type per
// constructed value, named With<Thing> on the type they configure:
//
//   - NewServer:     ServerOption     (WithServerVocabulary, WithBreaker,
//     WithFailover, WithRequestTimeout, WithMetricsRegistry,
//     WithTraceCapacity, WithSolveCache)
//   - NewNegotiator: NegotiatorOption (WithVocabulary, WithProviderFilter,
//     WithNegotiatorSolveCache)
//   - NewComposer:   ComposerOption   (WithComposerVocabulary,
//     WithComposerProviderFilter)
//   - NewClient:     ClientOption     (WithRetry, WithClientTimeout)
//
// Options are applied in order, later options overriding earlier
// ones; the zero configuration is always valid.
//
// # Solve cache
//
// NewServer attaches a bounded content-addressed solve cache
// (internal/cache) by default and threads it to its negotiator;
// WithSolveCache overrides the default (nil disables). With the cache
// on, repeat negotiations with identical content replay memoised
// plans, emitting byte-identical flight-recorder journals without
// applying the agents again. Renegotiations are not cached: each
// applies its retract/tell to the session's live store. A
// plan is stored on the second sighting of its key, so a request seen
// once costs no cache memory, and it replays from the third. The c∅ precheck is one
// node-consistency fold per provider and is not cached.
// Compositions are solved afresh per request, one chain pass each.
// Cached outcomes are bitwise those of the cold runs; error outcomes
// are never cached. Hit rates are exported as the cache_* metric
// families on /v1/metrics.
package broker
