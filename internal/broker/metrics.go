package broker

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"softsoa/internal/cache"
	"softsoa/internal/obs"
)

// blevelBuckets cover agreed levels across the metrics the broker
// negotiates: [0,1] carriers (reliability, preference) land in the
// low buckets, cost/downtime totals in the high ones.
var blevelBuckets = []float64{0.5, 0.9, 0.99, 1, 2.5, 5, 10, 25, 50, 100, 250}

// brokerMetrics holds the server's instruments, resolved once at
// construction so the hot paths never touch the registry's lock.
type brokerMetrics struct {
	requests *obs.CounterVec   // by route, method, status
	latency  *obs.HistogramVec // by route
	inFlight *obs.Gauge

	negStarted    *obs.Counter
	negOutcomes   *obs.CounterVec // by outcome: agreed / no_agreement / error
	negPrechecked *obs.Counter
	negBlevel     *obs.Histogram

	solves        *obs.CounterVec // by mode: optimal / greedy
	solverNodes   *obs.Counter
	solverSeconds *obs.Histogram

	breakerState       *obs.GaugeVec   // by provider
	breakerTransitions *obs.CounterVec // by provider, to-state

	slasActive   *obs.Gauge
	observations *obs.CounterVec // by result: ok / violation
	failovers    *obs.CounterVec // by result: rebound / stuck

	journalDropped *obs.Counter

	walRecords      *obs.Counter
	walAppendErrors *obs.Counter
	walTruncated    *obs.Counter
	snapshots       *obs.Counter

	admissionInflight *obs.Gauge
	admissionQueued   *obs.Gauge
	admissionShed     *obs.Counter
}

// newBrokerMetrics registers the broker's metric families on reg. All
// families are registered up front — even those whose series only
// appear under traffic — so one scrape of a fresh broker already
// documents the full catalogue.
func newBrokerMetrics(reg *obs.Registry) *brokerMetrics {
	return &brokerMetrics{
		requests: reg.CounterVec("broker_http_requests_total",
			"HTTP requests served, by v1 route, method and status.",
			"route", "method", "status"),
		latency: reg.HistogramVec("broker_http_request_seconds",
			"HTTP request handling latency in seconds, by v1 route.",
			nil, "route"),
		inFlight: reg.Gauge("broker_http_in_flight",
			"HTTP requests currently being handled."),
		negStarted: reg.Counter("broker_negotiations_started_total",
			"Negotiations started (initial requests and failover replays)."),
		negOutcomes: reg.CounterVec("broker_negotiations_total",
			"Completed negotiations, by outcome.",
			"outcome"),
		negPrechecked: reg.Counter("broker_negotiation_prechecks_doomed_total",
			"Provider negotiations skipped because the c-zero precheck proved them doomed."),
		negBlevel: reg.Histogram("broker_negotiation_blevel",
			"Agreed consistency level (blevel) of successful negotiations.",
			blevelBuckets),
		solves: reg.CounterVec("broker_solver_solves_total",
			"Composition solves, by algorithm.",
			"mode"),
		solverNodes: reg.Counter("broker_solver_nodes_total",
			"Work done by composition solves: chain-pass cells (optimal) or scored candidates (greedy)."),
		solverSeconds: reg.Histogram("broker_solver_seconds",
			"Wall-clock composition solve time in seconds.", nil),
		journalDropped: reg.Counter("journal_events_dropped_total",
			"Flight-recorder journal events dropped by the bounded event ring."),
		breakerState: reg.GaugeVec("broker_breaker_state",
			"Circuit breaker state per provider (0 closed, 1 open, 2 half-open).",
			"provider"),
		breakerTransitions: reg.CounterVec("broker_breaker_transitions_total",
			"Circuit breaker state transitions, by provider and new state.",
			"provider", "to"),
		slasActive: reg.Gauge("broker_slas_active",
			"Live SLA sessions held by the broker."),
		observations: reg.CounterVec("broker_observations_total",
			"Service-level observations recorded against live SLAs, by result.",
			"result"),
		failovers: reg.CounterVec("broker_failovers_total",
			"Violation-driven failover attempts, by result.",
			"result"),
		walRecords: reg.Counter("broker_wal_records_total",
			"State mutation records appended to the durability WAL."),
		walAppendErrors: reg.Counter("broker_wal_append_errors_total",
			"WAL appends that failed; the in-memory state is served but may not survive a restart."),
		walTruncated: reg.Counter("broker_wal_truncated_records_total",
			"Torn or corrupt WAL tail records discarded during crash recovery."),
		snapshots: reg.Counter("broker_snapshots_total",
			"State snapshots written (periodic and final-drain)."),
		admissionInflight: reg.Gauge("broker_admission_inflight",
			"Requests currently holding an admission slot on overload-protected routes."),
		admissionQueued: reg.Gauge("broker_admission_queued",
			"Requests waiting in the bounded admission queue."),
		admissionShed: reg.Counter("broker_admission_shed_total",
			"Requests shed with 429 because the admission semaphore and queue were full."),
	}
}

// observeSolve records one composition solve's work and time.
func (m *brokerMetrics) observeSolve(mode string, comp *Composition) {
	m.solves.With(mode).Inc()
	if comp == nil {
		return
	}
	m.solverNodes.Add(comp.Nodes)
	m.solverSeconds.Observe(comp.Elapsed.Seconds())
}

// statusRecorder captures the status code a handler writes so the
// request counter can label it, and the handler's logOutcome attributes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	log    []any
}

// logOutcome adds a request's outcome, with the ids and values that
// explain it, to the request's one Info record (its access line).
func logOutcome(w http.ResponseWriter, outcome string, args ...any) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.log = append(append(rec.log, "outcome", outcome), args...)
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route's handler with the per-route
// count/latency/status instruments and the access line. The route
// label is the registered pattern — bounded cardinality, unlike raw
// request paths.
func (s *Server) instrument(pattern string, next http.HandlerFunc) http.Handler {
	method, route, ok := strings.Cut(pattern, " ")
	if !ok {
		method, route = "", pattern
	}
	lat := s.bm.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.bm.inFlight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next(rec, r)
		elapsed := time.Since(start)
		lat.Observe(elapsed.Seconds())
		s.bm.inFlight.Dec()
		s.bm.requests.With(route, method, strconv.Itoa(rec.status)).Inc()
		if ctx := r.Context(); s.logger.Enabled(ctx, slog.LevelInfo) {
			s.logger.InfoContext(ctx, "request", append([]any{"method", method, "route", route,
				"status", rec.status, "elapsed", elapsed.Round(time.Microsecond).String()}, rec.log...)...)
		}
	})
}

// withTracing opens a trace for every request — adopting the
// client's ID from the X-Softsoa-Trace header when present, minting
// one otherwise — echoes the ID on the response, and records the
// completed trace in the server's ring buffer (traces without spans,
// e.g. scrapes, are dropped there).
func (s *Server) withTracing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		w.Header().Set(obs.TraceHeader, tr.ID())
		next.ServeHTTP(w, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
		s.traces.Record(tr)
	})
}

// handleMetrics serves the Prometheus text-format exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Handler().ServeHTTP(w, r)
}

// handleTraces dumps the trace ring buffer as JSON, oldest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errcheck a failed debug-dump write means the client is gone; nothing to do
	_ = s.traces.WriteJSON(w)
}

// registerCacheMetrics exports the solve cache's counters on the
// registry as live families: cache_{hits,misses,evictions}_total are
// labelled by tier (only search remains), and cache_entries gauges
// the current population. The readings come straight from the
// cache's atomics, so every scrape sees the instantaneous truth
// without per-operation instrument plumbing on the hot paths.
func registerCacheMetrics(reg *obs.Registry, c *cache.Cache) {
	t := cache.TierSearch
	hits := map[string]func() float64{t.String(): func() float64 { return float64(c.TierStats(t).Hits) }}
	misses := map[string]func() float64{t.String(): func() float64 { return float64(c.TierStats(t).Misses) }}
	evictions := map[string]func() float64{t.String(): func() float64 { return float64(c.TierStats(t).Evictions) }}
	reg.CounterFuncs("cache_hits_total", "Solve cache hits by tier.", "tier", hits)
	reg.CounterFuncs("cache_misses_total", "Solve cache misses by tier.", "tier", misses)
	reg.CounterFuncs("cache_evictions_total", "Solve cache LRU evictions by tier.", "tier", evictions)
	reg.GaugeFunc("cache_entries", "Entries currently resident in the solve cache.",
		func() float64 { return float64(c.Len()) })
}
