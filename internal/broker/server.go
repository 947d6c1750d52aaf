package broker

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	brokerslo "softsoa/internal/broker/slo"
	"softsoa/internal/broker/store"
	"softsoa/internal/cache"
	"softsoa/internal/clock"
	"softsoa/internal/obs"
	"softsoa/internal/obs/journal"
	"softsoa/internal/policy"
	"softsoa/internal/sccp"
	"softsoa/internal/soa"
)

// Wire formats. The paper assumes SOAP messages extended with QoS
// requirements and a UDDI registry; this HTTP/XML front-end carries
// the same documents over the same protocol steps.

// NegotiateRequest is the XML body of POST /negotiate.
type NegotiateRequest struct {
	XMLName     xml.Name      `xml:"negotiate"`
	Service     string        `xml:"service,attr"`
	Client      string        `xml:"client,attr"`
	Metric      soa.Metric    `xml:"metric,attr"`
	Requirement soa.Attribute `xml:"requirement"`
	// Lower/Upper are the client's acceptance interval (a1/a2);
	// omitted elements mean unbounded.
	Lower *float64 `xml:"lower,omitempty"`
	Upper *float64 `xml:"upper,omitempty"`
	// Must/May carry the client's capability policy.
	Must []string `xml:"must,omitempty"`
	May  []string `xml:"may,omitempty"`
}

// ComposeRequest is the XML body of POST /compose.
type ComposeRequest struct {
	XMLName xml.Name   `xml:"compose"`
	Client  string     `xml:"client,attr"`
	Metric  soa.Metric `xml:"metric,attr"`
	// Greedy selects the baseline algorithm instead of the optimal
	// composition.
	Greedy bool     `xml:"greedy,attr,omitempty"`
	Stages []string `xml:"stage"`
	Lower  *float64 `xml:"lower,omitempty"`
	// Must/May carry the client's capability policy.
	Must []string `xml:"must,omitempty"`
	May  []string `xml:"may,omitempty"`
}

// DiscoverResponse is the XML body returned by GET /discover.
type DiscoverResponse struct {
	XMLName   xml.Name       `xml:"services"`
	Service   string         `xml:"service,attr"`
	Documents []soa.Document `xml:"qos"`
}

// FailureResponse reports a negotiation that found no agreement.
type FailureResponse struct {
	XMLName xml.Name         `xml:"failure"`
	Reason  string           `xml:"reason,attr"`
	Tried   []ProviderReport `xml:"provider"`
}

// ProviderReport is one provider's negotiation status on the wire.
type ProviderReport struct {
	Name   string `xml:"name,attr"`
	Status string `xml:"status,attr"`
}

// XMLError is the structured error body the broker returns for every
// failed request: <error reason="..."/>.
type XMLError struct {
	XMLName xml.Name `xml:"error"`
	Reason  string   `xml:"reason,attr"`
}

// RenegotiateRequest is the XML body of POST /renegotiate: the
// client's new requirement and acceptance interval for an existing
// agreement.
type RenegotiateRequest struct {
	XMLName     xml.Name      `xml:"renegotiate"`
	ID          string        `xml:"id,attr"`
	Requirement soa.Attribute `xml:"requirement"`
	Lower       *float64      `xml:"lower,omitempty"`
	Upper       *float64      `xml:"upper,omitempty"`
}

// ObserveRequest is the XML body of POST /observe: one measured
// service level for a live agreement.
type ObserveRequest struct {
	XMLName xml.Name `xml:"observe"`
	ID      string   `xml:"id,attr"`
	Level   float64  `xml:"level,attr"`
}

// ObserveResponse reports whether the observation violated the SLA,
// with the updated compliance summary. When the violation rate
// crossed the failover threshold, FailedOver is true, Provider names
// the newly bound provider and Report summarises the fresh agreement.
type ObserveResponse struct {
	XMLName    xml.Name      `xml:"observation"`
	ID         string        `xml:"id,attr"`
	Violated   bool          `xml:"violated,attr"`
	Provider   string        `xml:"provider,attr,omitempty"`
	FailedOver bool          `xml:"failedOver,attr,omitempty"`
	Report     MonitorReport `xml:"report"`
}

// slaEntry is the server-side record of one live agreement: the
// session, its compliance monitor, and the original request (kept for
// violation-driven failover). Each entry carries its own lock so
// renegotiation and monitor rebasing happen in one critical section
// per agreement without serialising unrelated SLAs.
type slaEntry struct {
	mu sync.Mutex
	// session is the live constraint store behind the agreement; it
	// is replaced wholesale on failover. guarded by mu
	session *Session
	mon     *Monitor // guarded by mu
	// req is the original negotiation request, replayed against the
	// remaining healthy providers when the agreement fails over.
	// Immutable after construction.
	req Request
	// versionBase offsets session.Version() so the wire version keeps
	// increasing monotonically across failovers. guarded by mu
	versionBase int
	// priorObs/priorViol are the lifetime counts of the bindings
	// that failovers replaced, so compliance spans the SLA's whole
	// life. guarded by mu
	priorObs, priorViol int64
}

// version is the wire version of the agreement. Callers hold e.mu.
func (e *slaEntry) version() int { return e.versionBase + e.session.Version() }

// bind installs a binding with a fresh monitor (and an empty failover
// window): a new entry's first, or a failover's, to which the old
// session's version and the old monitor's counts carry over. Callers
// hold e.mu.
func (e *slaEntry) bind(session *Session) error {
	mon, err := NewMonitor(&soa.SLA{Metric: session.metric, AgreedLevel: session.AgreedLevel()})
	if err != nil {
		return err
	}
	if e.session != nil {
		obs, viol, _, _ := e.mon.counts()
		e.priorObs += obs
		e.priorViol += viol
		e.versionBase += e.session.Version()
	}
	e.session, e.mon = session, mon
	return nil
}

// Server is the broker daemon: registry + negotiator + composer
// behind an HTTP mux, plus the store of live SLA sessions, their
// compliance monitors, the per-provider circuit breakers, and the
// observability layer (metrics registry and trace ring buffer).
type Server struct {
	reg        *soa.Registry
	negotiator *Negotiator
	composer   *Composer
	handler    http.Handler
	health     *HealthBoard
	failover   FailoverPolicy
	metrics    *obs.Registry
	bm         *brokerMetrics
	traces     *obs.TraceLog
	logger     *slog.Logger
	slo        *brokerslo.Reconciler
	// clock and window time and size each monitor's failover window.
	clock  clock.Clock
	window windowSpec

	// Flight-recorder configuration (immutable after construction).
	journalRetention int
	journalSink      func(*journal.Journal)

	// Durability (immutable after construction; nil st disables it).
	st            store.Store
	snapshotEvery int
	// persistMu orders commits against snapshots: every handler holds
	// the read side across its in-memory commit and WAL append, a
	// snapshot holds the write side, so no snapshot ever captures a
	// commit whose record lands after the snapshot's sequence. Lock
	// order is persistMu → s.mu → e.mu, never the reverse.
	persistMu    sync.RWMutex
	persistCount atomic.Int64  // records since the last snapshot
	lastSeq      atomic.Uint64 // newest appended WAL sequence
	draining     atomic.Bool   // drain started; hot routes refuse work
	gate         *admission    // nil when admission control is off

	mu         sync.Mutex
	entries    map[string]*slaEntry        // guarded by mu
	nextID     int                         // guarded by mu
	journals   map[string]*journal.Journal // guarded by mu
	journalIDs []string                    // guarded by mu, FIFO retention order
}

// ServerOption configures a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	vocab            *policy.Vocabulary
	breaker          BreakerConfig
	failover         FailoverPolicy
	timeout          time.Duration
	metrics          *obs.Registry
	traceCap         int
	logger           *slog.Logger
	journalRetention int
	journalSink      func(*journal.Journal)
	st               store.Store
	snapshotEvery    int
	admission        AdmissionConfig
	solveCache       *cache.Cache
	solveCacheSet    bool
	slo              SLOConfig
}

// defaultSolveCacheSize is the entry capacity of the solve cache a
// server creates when WithSolveCache is not used.
const defaultSolveCacheSize = 4096

// WithServerVocabulary equips the broker daemon with a capability
// vocabulary, enabling MUST/MAY capability policies on the wire.
func WithServerVocabulary(v *policy.Vocabulary) ServerOption {
	return func(c *serverConfig) { c.vocab = v }
}

// WithBreaker tunes the per-provider circuit breakers.
func WithBreaker(cfg BreakerConfig) ServerOption {
	return func(c *serverConfig) { c.breaker = cfg }
}

// WithFailover sets the failover predicate's threshold; with
// p.Enabled, a violating observation that makes it true fails the
// SLA over.
func WithFailover(p FailoverPolicy) ServerOption {
	return func(c *serverConfig) { c.failover = p }
}

// WithRequestTimeout bounds each request's total handling time
// (default 30s; <= 0 disables the timeout middleware).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.timeout = d }
}

// WithSolverWorkers has no effect: compositions are solved by one
// sequential chain pass, which needs no worker pool.
//
// Deprecated: remove the call.
func WithSolverWorkers(n int) ServerOption {
	return func(*serverConfig) {}
}

// WithMetricsRegistry shares an existing metrics registry with the
// server instead of the private one it creates by default — so an
// ops listener, a fault injector, or several embedded brokers can
// expose one merged scrape.
func WithMetricsRegistry(reg *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.metrics = reg }
}

// WithTraceCapacity sets how many completed traces the debug ring
// buffer retains (default 256).
func WithTraceCapacity(n int) ServerOption {
	return func(c *serverConfig) { c.traceCap = n }
}

// WithLogger installs a structured logger (obs.NewLogger) for request
// outcomes, breaker transitions, failover decisions and journal
// warnings. The default discards everything.
func WithLogger(l *slog.Logger) ServerOption {
	return func(c *serverConfig) { c.logger = l }
}

// WithJournalRetention sets how many journals the server retains for
// GET /v1/negotiations/{id}/journal (default 256, FIFO eviction).
func WithJournalRetention(n int) ServerOption {
	return func(c *serverConfig) { c.journalRetention = n }
}

// WithJournalSink installs a callback invoked with each finished
// journal — brokerd -journal-dir uses it to dump JSONL files. The
// sink runs on the request goroutine, so with a sink every request
// pays for rendering its journal: once per recorded value, since a
// journal keeps the text it rendered. Keep the sink itself quick.
func WithJournalSink(fn func(*journal.Journal)) ServerOption {
	return func(c *serverConfig) { c.journalSink = fn }
}

// WithStateStore makes the broker durable: every acknowledged state
// mutation is appended to st's WAL, and Recover rebuilds the full
// state — SLAs, sessions, compliance counters, breakers, registry —
// from st's snapshot and WAL tail after a crash or restart. The
// caller owns st's lifecycle (open it before NewServer, close it
// after the final Flush).
func WithStateStore(st store.Store) ServerOption {
	return func(c *serverConfig) { c.st = st }
}

// WithSolveCache installs the negotiator's content-addressed solve
// cache of negotiation plans, each admitted on the second sighting of
// its key. By default the server creates its own cache of
// defaultSolveCacheSize entries; pass an explicit cache to share one
// across embedded brokers or to size it, or nil to disable caching
// entirely. Cached and cold requests are bit-identical — same
// SLAs, same journals — the cache only changes how fast the answer is
// computed. Hit/miss/eviction counters are exported on the metrics
// registry (cache_hits_total and friends, labelled by tier).
func WithSolveCache(c *cache.Cache) ServerOption {
	return func(cfg *serverConfig) {
		cfg.solveCache = c
		cfg.solveCacheSet = true
	}
}

// WithSnapshotEvery compacts the WAL into a snapshot every n appended
// records (default 256; <= 0 disables periodic snapshots — only
// Flush writes one).
func WithSnapshotEvery(n int) ServerOption {
	return func(c *serverConfig) { c.snapshotEvery = n }
}

// WithAdmission bounds concurrent work on the hot routes; see
// AdmissionConfig. A zero MaxInFlight leaves admission control off.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(c *serverConfig) { c.admission = cfg }
}

// NewServer returns a broker server over a fresh registry with the
// given link penalty for compositions.
func NewServer(penalty LinkPenalty, opts ...ServerOption) *Server {
	cfg := serverConfig{
		timeout:          30 * time.Second,
		traceCap:         256,
		journalRetention: 256,
		snapshotEvery:    256,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.metrics == nil {
		cfg.metrics = obs.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = obs.NopLogger()
	}
	if cfg.journalRetention < 1 {
		cfg.journalRetention = 1
	}
	reg := soa.NewRegistry()
	sloCfg := cfg.slo.withDefaults()
	s := &Server{
		reg:              reg,
		failover:         cfg.failover.withDefaults(),
		clock:            sloCfg.Clock,
		window:           windowSpec{slot: sloCfg.SweepEvery, fast: sloCfg.FastWindow, slow: sloCfg.SlowWindow},
		entries:          make(map[string]*slaEntry),
		metrics:          cfg.metrics,
		traces:           obs.NewTraceLog(cfg.traceCap),
		logger:           cfg.logger,
		journalRetention: cfg.journalRetention,
		journalSink:      cfg.journalSink,
		journals:         make(map[string]*journal.Journal),
		st:               cfg.st,
		snapshotEvery:    cfg.snapshotEvery,
	}
	s.bm = newBrokerMetrics(cfg.metrics)
	if cfg.admission.MaxInFlight > 0 {
		s.gate = newAdmission(cfg.admission, s.bm)
	}
	// Breaker transitions feed the state gauge and transition counter.
	// The hook runs under the board lock, so it stays atomic-only.
	breaker := cfg.breaker
	breaker.onTransition = func(provider string, from, to BreakerState) {
		s.bm.breakerState.With(provider).Set(float64(to))
		s.bm.breakerTransitions.With(provider, to.String()).Inc()
		s.logger.Info("breaker transition",
			"provider", provider, "from", from.String(), "to", to.String())
	}
	s.health = NewHealthBoard(breaker)
	// The breaker board gates provider selection in both the
	// negotiator and the composer, so a sick provider is skipped
	// everywhere until a half-open probe shows recovery.
	filter := func(provider string) (bool, string) {
		if s.health.Allow(provider) {
			return true, ""
		}
		return false, "circuit breaker open"
	}
	if !cfg.solveCacheSet {
		cfg.solveCache = cache.New(defaultSolveCacheSize)
	}
	negOpts := []NegotiatorOption{WithVocabulary(cfg.vocab), WithProviderFilter(filter)}
	composerOpts := []ComposerOption{
		WithComposerVocabulary(cfg.vocab), WithComposerProviderFilter(filter),
	}
	if cfg.solveCache != nil {
		negOpts = append(negOpts, WithNegotiatorSolveCache(cfg.solveCache))
		registerCacheMetrics(cfg.metrics, cfg.solveCache)
	}
	s.negotiator = NewNegotiator(reg, negOpts...)
	s.composer = NewComposer(reg, penalty, composerOpts...)
	s.slo = brokerslo.New(brokerslo.Config{
		Source:        s,
		SweepEvery:    sloCfg.SweepEvery,
		FastWindow:    sloCfg.FastWindow,
		SlowWindow:    sloCfg.SlowWindow,
		BurnThreshold: s.failover.ViolationRate,
		Registry:      s.metrics,
		Logger:        s.logger,
	})

	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	// Hot routes sit behind the admission gate (and the drain check),
	// inside the instrumentation so shed 429s appear in the per-route
	// request counters.
	hot := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, s.admit(h).ServeHTTP))
	}
	route("POST /v1/providers", s.handlePublish)
	route("GET /v1/providers", s.handleDiscover)
	hot("POST /v1/negotiations", s.handleNegotiate)
	hot("POST /v1/negotiations/{id}/renegotiate", s.handleRenegotiate)
	route("GET /v1/negotiations/{id}/journal", s.handleJournal)
	route("GET /v1/slas/{id}", s.handleGetSLA)
	route("GET /v1/slas/{id}/compliance", s.handleCompliance)
	hot("POST /v1/observations", s.handleObserve)
	hot("POST /v1/compositions", s.handleCompose)
	route("GET /v1/health", s.handleHealth)
	route("GET /v1/metrics", s.handleMetrics)
	route("GET /v1/debug/traces", s.handleTraces)
	route("GET /v1/debug/slo", s.handleDebugSLO)

	var h http.Handler = mux
	if cfg.timeout > 0 {
		h = http.TimeoutHandler(h, cfg.timeout, `<error reason="request timed out"></error>`)
	}
	s.handler = withRecovery(s.withTracing(h))
	return s
}

// Registry exposes the server's registry (for tests and local
// embedding).
func (s *Server) Registry() *soa.Registry { return s.reg }

// Health exposes the per-provider breaker board (for tests and local
// embedding).
func (s *Server) Health() *HealthBoard { return s.health }

// Handler returns the HTTP handler: the broker mux wrapped in
// timeout, tracing and panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's metrics registry, so an ops listener
// (brokerd -ops-addr) or a test can scrape it without going through
// the public mux.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Traces exposes the server's trace ring buffer.
func (s *Server) Traces() *obs.TraceLog { return s.traces }

// BeginDrain puts the broker into drain mode: the hot routes refuse
// new work with 503 while requests already admitted run to
// completion. The caller then shuts the HTTP server down and calls
// Flush for the final snapshot.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logger.Info("drain started")
	}
}

// withRecovery turns a handler panic into a structured 500 instead of
// killing the connection (and, under http.Serve, leaking a broken
// keep-alive). http.ErrAbortHandler is re-raised: it is the sanctioned
// way to abort a response.
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	doc, err := soa.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.persistMu.RLock()
	if err := s.reg.Publish(doc); err != nil {
		s.persistMu.RUnlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.appendRecord(recRegister, registerRecord{Doc: *doc})
	s.persistMu.RUnlock()
	s.maybeSnapshot()
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	service := r.URL.Query().Get("query")
	if service == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter")
		return
	}
	resp := DiscoverResponse{Service: service}
	for _, d := range s.reg.Discover(service) {
		resp.Documents = append(resp.Documents, *d)
	}
	writeXML(w, http.StatusOK, resp)
}

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	parse := obs.StartSpan(ctx, "parse")
	var nr NegotiateRequest
	ok := readXML(w, r, &nr)
	parse.End()
	if !ok {
		return
	}
	req := Request{
		Service:      nr.Service,
		Client:       nr.Client,
		Metric:       nr.Metric,
		Requirement:  nr.Requirement,
		Lower:        nr.Lower,
		Upper:        nr.Upper,
		Capabilities: policy.Requirement{Must: nr.Must, May: nr.May},
	}
	s.bm.negStarted.Inc()
	j := s.newJournal(ctx, "negotiation")
	ctx = journal.ContextWith(ctx, j)
	sla, session, outcome, err := s.negotiator.NegotiateSession(ctx, req)
	s.recordOutcome(outcome)
	if err != nil {
		s.bm.negOutcomes.With("error").Inc()
		s.logger.ErrorContext(ctx, "negotiation failed",
			"service", req.Service, "client", req.Client, "error", err)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if sla == nil {
		s.bm.negOutcomes.With("no_agreement").Inc()
		s.persistMu.RLock()
		id := s.nextJournalID("neg")
		s.appendRecord(recNegFail, negFailRecord{ID: id, Feedback: feedbackFromOutcome(outcome)})
		s.persistMu.RUnlock()
		s.maybeSnapshot()
		s.keepJournal(w, id, j)
		logOutcome(w, "no_agreement", "service", req.Service, "client", req.Client, "journal", id)
		writeXML(w, http.StatusConflict, failureFromOutcome("no shared agreement", outcome))
		return
	}
	// A live agreement without a monitor would 404 on /observe and
	// /compliance forever; fail the negotiation instead of signing an
	// unmonitorable SLA.
	e := &slaEntry{req: req}
	if err := e.bind(session); err != nil {
		s.bm.negOutcomes.With("error").Inc()
		writeError(w, http.StatusInternalServerError, "monitor: "+err.Error())
		return
	}
	commit := obs.StartSpan(ctx, "sla-commit")
	s.persistMu.RLock()
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("sla-%d", s.nextID)
	s.entries[id] = e
	live := len(s.entries)
	s.mu.Unlock()
	s.appendRecord(recNegotiate, negotiateRecord{
		ID: id, Req: req, Provider: session.Provider(), Offer: session.offerAttr,
		Feedback: feedbackFromOutcome(outcome),
	})
	s.persistMu.RUnlock()
	commit.End()
	s.maybeSnapshot()
	s.bm.negOutcomes.With("agreed").Inc()
	s.bm.negBlevel.Observe(sla.AgreedLevel)
	s.bm.slasActive.Set(float64(live))
	sla.ID = id
	sla.Version = session.Version()
	s.keepJournal(w, id, j)
	logOutcome(w, "agreed", "service", req.Service, "client", req.Client, "sla", id,
		"provider", session.Provider(), "blevel", sla.AgreedLevel)
	writeXML(w, http.StatusOK, sla)
}

// recordOutcome feeds negotiation results into the breaker board:
// an agreement is a success, a stuck negotiation a failure. Skipped
// providers (missing metric/capabilities, open breaker) don't count.
// Precheck-doomed providers count as failures — the precheck proves
// the run would have ended stuck — and are tallied separately.
func (s *Server) recordOutcome(out *Outcome) {
	if out == nil {
		return
	}
	for _, po := range out.PerProvider {
		if po.Prechecked {
			s.bm.negPrechecked.Inc()
		}
		if po.Skipped != "" {
			continue
		}
		if po.Status == sccp.Succeeded {
			s.health.RecordSuccess(po.Provider)
		} else {
			s.health.RecordFailure(po.Provider)
		}
	}
}

func (s *Server) entry(id string) (*slaEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return e, ok
}

// handleRenegotiate relaxes an existing agreement nonmonotonically:
// the session's old requirement is retracted from the shared store
// and the new one told under the given interval.
func (s *Server) handleRenegotiate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rr RenegotiateRequest
	if !readXML(w, r, &rr) {
		return
	}
	e, ok := s.entry(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown SLA %q", id))
		return
	}
	// The renegotiation appends segments to the SLA's retained journal
	// so a negotiation and its later relaxations replay as one
	// artifact; a fresh journal takes over when the original was
	// evicted.
	ctx := r.Context()
	j, ok := s.journalByID(id)
	if !ok {
		j = s.newJournal(ctx, "renegotiation")
	}
	ctx = journal.ContextWith(ctx, j)
	// One critical section per agreement: renegotiating the store and
	// rebasing the monitor must be atomic, or a concurrent
	// renegotiation could rebase the monitor to a stale agreed level.
	// The persist read lock is taken outside e.mu (lock order
	// persistMu → e.mu) so the WAL append lands inside the same
	// critical section: per-entry WAL order matches commit order.
	s.persistMu.RLock()
	e.mu.Lock()
	sla, err := e.session.Renegotiate(ctx, rr.Requirement, rr.Lower, rr.Upper)
	if err != nil {
		e.mu.Unlock()
		s.persistMu.RUnlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if sla == nil {
		e.mu.Unlock()
		s.persistMu.RUnlock()
		s.keepJournal(w, id, j)
		logOutcome(w, "rejected", "sla", id)
		writeXML(w, http.StatusConflict, FailureResponse{
			Reason: "renegotiation rejected: the relaxed store violates the interval; previous agreement stands",
		})
		return
	}
	sla.ID = id
	sla.Version = e.version()
	e.mon.Rebase(sla.AgreedLevel)
	s.appendRecord(recRenegotiate, renegotiateRecord{
		ID: id, Requirement: rr.Requirement, Lower: rr.Lower, Upper: rr.Upper,
	})
	e.mu.Unlock()
	s.persistMu.RUnlock()
	s.maybeSnapshot()
	s.keepJournal(w, id, j)
	logOutcome(w, "agreed", "sla", id, "version", sla.Version, "blevel", sla.AgreedLevel)
	writeXML(w, http.StatusOK, sla)
}

// handleObserve records a measured service level against a live SLA.
// When failover is enabled and a violation makes the failover
// predicate true over the binding's fast window, the bound provider's
// breaker is tripped and the original request is renegotiated against
// the remaining healthy providers — the paper's graceful degradation:
// the composition is monitored, checked, and rebound when it stops
// honouring the agreement. This is the only place failover is
// decided.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var or ObserveRequest
	if !readXML(w, r, &or) {
		return
	}
	e, ok := s.entry(or.ID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown SLA %q", or.ID))
		return
	}
	// Defers run LIFO: e.mu, then the persist read lock, then the
	// snapshot check (which needs the write lock free).
	defer s.maybeSnapshot()
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	provider := e.session.Provider()
	now := s.clock.Now()
	violated := e.mon.observeAt(now, s.window, or.Level)
	rec := observeRecord{ID: or.ID, Level: or.Level, Violated: violated}
	if violated {
		s.bm.observations.With("violation").Inc()
		s.health.RecordFailure(provider)
		rec.Feedback = append(rec.Feedback, feedbackRecord{Provider: provider, Kind: "failure"})
	} else {
		s.bm.observations.With("ok").Inc()
		s.health.RecordSuccess(provider)
		rec.Feedback = append(rec.Feedback, feedbackRecord{Provider: provider, Kind: "success"})
	}
	resp := ObserveResponse{ID: or.ID, Violated: violated, Provider: provider}
	if violated && s.shouldFailOver(e, now) {
		rebound, fb := s.failOverLocked(r.Context(), e)
		rec.Feedback = append(rec.Feedback, fb...)
		if rebound {
			s.bm.failovers.With("rebound").Inc()
			resp.FailedOver = true
			resp.Provider = e.session.Provider()
			logOutcome(w, "failed_over", "sla", or.ID, "from", provider, "to", resp.Provider)
			offer := e.session.offerAttr
			rec.FailedOver = true
			rec.Provider = resp.Provider
			rec.Offer = &offer
		} else {
			s.bm.failovers.With("stuck").Inc()
		}
	}
	s.appendRecord(recObserve, rec)
	resp.Report = e.mon.Report()
	writeXML(w, http.StatusOK, resp)
}

// shouldFailOver evaluates the failover predicate over the binding's
// fast window at now. Callers hold e.mu.
func (s *Server) shouldFailOver(e *slaEntry, now time.Time) bool {
	if !s.failover.Enabled {
		return false
	}
	fast, _ := e.mon.windows(now, s.window)
	return s.failover.trips(fast)
}

// failOverLocked replays the entry's original request against the
// remaining healthy providers (the sick one's breaker is tripped
// first, so the negotiator skips it). On success the entry is rebound
// and a fresh monitor tracks the new agreement; on failure
// the old agreement stands and the next violation retries. The
// breaker effects the attempt produced are returned so the caller can
// journal them for replay. The caller holds e.mu.
func (s *Server) failOverLocked(ctx context.Context, e *slaEntry) (bool, []feedbackRecord) {
	sick := e.session.Provider()
	s.health.Trip(sick)
	fb := []feedbackRecord{{Provider: sick, Kind: "trip"}}
	s.bm.negStarted.Inc()
	sla, session, outcome, err := s.negotiator.NegotiateSession(ctx, e.req)
	s.recordOutcome(outcome)
	fb = append(fb, feedbackFromOutcome(outcome)...)
	if err != nil || sla == nil {
		s.logger.WarnContext(ctx, "failover found no replacement",
			"service", e.req.Service, "provider", sick)
		return false, fb
	}
	if e.bind(session) != nil {
		return false, fb
	}
	return true, fb
}

// handleCompliance returns the compliance summary for a live SLA.
func (s *Server) handleCompliance(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.entry(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown SLA %q", id))
		return
	}
	e.mu.Lock()
	report := e.mon.Report()
	e.mu.Unlock()
	writeXML(w, http.StatusOK, report)
}

// handleGetSLA returns the current agreement for an SLA id.
func (s *Server) handleGetSLA(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.entry(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown SLA %q", id))
		return
	}
	e.mu.Lock()
	// The session's view, whose slices the encoder only reads.
	sla := e.session.view
	sla.ID = id
	sla.Version = e.version()
	e.mu.Unlock()
	writeXML(w, http.StatusOK, &sla)
}

// handleHealth reports every tracked provider's breaker state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeXML(w, http.StatusOK, HealthResponse{Providers: s.health.Snapshot()})
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	parse := obs.StartSpan(ctx, "parse")
	var cr ComposeRequest
	ok := readXML(w, r, &cr)
	parse.End()
	if !ok {
		return
	}
	req := PipelineRequest{
		Client:       cr.Client,
		Stages:       cr.Stages,
		Metric:       cr.Metric,
		Lower:        cr.Lower,
		Capabilities: policy.Requirement{Must: cr.Must, May: cr.May},
	}
	var (
		sla  *soa.SLA
		comp *Composition
		err  error
	)
	// Compositions journal one solver event per bound stage rather
	// than machine transitions; the segment is evidence, not a
	// replayable program.
	j := s.newJournal(ctx, "composition")
	if sr, err := soa.SemiringFor(req.Metric); err == nil {
		j.SetFormat(sr.Format)
	}
	j.BeginSegment(journal.Segment{
		Label: "compose",
		Note:  fmt.Sprintf("stages=%d metric=%s", len(req.Stages), req.Metric),
	})
	mode := "optimal"
	solve := obs.StartSpan(ctx, "solve")
	if cr.Greedy {
		mode = "greedy"
		sla, comp, err = s.composer.ComposeGreedy(req)
	} else {
		sla, comp, err = s.composer.composeChain(req, j)
	}
	solve.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.bm.observeSolve(mode, comp)
	s.persistMu.RLock()
	id := s.nextJournalID("comp")
	s.appendRecord(recCompose, composeRecord{ID: id})
	s.persistMu.RUnlock()
	s.maybeSnapshot()
	if sla == nil {
		j.EndSegment("no_composition", "", "")
		s.keepJournal(w, id, j)
		logOutcome(w, "no_composition", "client", req.Client, "stages", len(req.Stages), "journal", id)
		writeXML(w, http.StatusConflict, FailureResponse{Reason: "no composition meets the requirement"})
		return
	}
	j.EndSegment("composed", "", fmt.Sprintf("%g", comp.Total))
	s.keepJournal(w, id, j)
	logOutcome(w, "composed", "client", req.Client, "mode", mode, "stages", len(req.Stages),
		"total", comp.Total, "journal", id)
	writeXML(w, http.StatusOK, sla)
}

func failureFromOutcome(reason string, out *Outcome) FailureResponse {
	fr := FailureResponse{Reason: reason}
	if out != nil {
		for _, po := range out.PerProvider {
			fr.Tried = append(fr.Tried, ProviderReport{Name: po.Provider, Status: po.Status.String()})
		}
	}
	return fr
}

func readXML(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return false
	}
	if err := xml.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return false
	}
	return true
}

// writeError sends a structured XML error body so clients get typed
// errors instead of free-text ones.
func writeError(w http.ResponseWriter, status int, reason string) {
	writeXML(w, status, XMLError{Reason: reason})
}

func writeXML(w http.ResponseWriter, status int, v any) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		// Marshalling our own wire types cannot fail under normal
		// operation; fall back to a hand-built error body.
		w.Header().Set("Content-Type", "application/xml")
		w.WriteHeader(http.StatusInternalServerError)
		//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
		fmt.Fprintf(w, "<error reason=%q></error>\n", "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
	_, _ = w.Write(out)
	//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
	_, _ = w.Write([]byte("\n"))
}
