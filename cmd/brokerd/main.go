// Command brokerd runs the QoS broker of Fig. 6 as an HTTP daemon.
// Providers publish XML QoS documents to POST /v1/providers, clients
// discover them via GET /v1/providers?query=S, negotiate SLAs via
// POST /v1/negotiations and request pipeline compositions via
// POST /v1/compositions. With -ops-addr a second, operator-only
// listener serves pprof, expvar, the Prometheus metrics and the trace
// dump.
//
// Every negotiation, renegotiation and composition is captured in a
// flight-recorder journal served at GET /v1/negotiations/{id}/journal;
// with -journal-dir each finished journal is also dumped as
// <id>.jsonl, replayable offline with softsoa-replay. Logs are
// structured (log/slog): human-readable text by default, JSON lines
// under -log-json, each line carrying the request's trace id.
//
// Usage:
//
//	brokerd [-addr :8700] [-ops-addr :8701] [-link-cost 5] [-link-factor 0.96] \
//	        [-capabilities http-auth,gzip,tls13] [-log-json] [-log-level info] [-journal-dir journals/] \
//	        [-state-dir state/] [-snapshot-every 256] \
//	        [-max-inflight 64] [-admission-queue 128] [-drain-deadline 10s] \
//	        [-failover] [-failover-rate 0.5] [-failover-min-obs 3] \
//	        [-slo-sweep-every 10s] [-slo-fast-window 1m] [-slo-slow-window 1h]
//
// Failover has one model: an SLA is at risk when at least
// -failover-min-obs observations in the last -slo-fast-window show a
// violation rate above -failover-rate. With -failover, the violating
// observation that makes this true rebinds the SLA to a healthy
// provider. An always-on SLO reconciler sweeps every live SLA on
// -slo-sweep-every (also the width of a window slot), aging the
// windows and publishing per-SLA compliance, blevel-drift, burn-rate
// and at-risk series on /v1/metrics and a read-only JSON snapshot at
// GET /v1/debug/slo.
//
// With -state-dir every state mutation is appended to a checksummed
// write-ahead log and periodically compacted into an atomic snapshot;
// a restarted brokerd replays both and resumes with identical SLAs,
// sessions, compliance counters and breaker states. SIGTERM drains
// gracefully: new hot-route work is refused (503), in-flight requests
// finish under -drain-deadline, and a final snapshot is flushed.
// With -max-inflight the hot routes shed overload with 429 and a
// Retry-After hint instead of queueing unboundedly.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/broker/store"
	"softsoa/internal/cache"
	"softsoa/internal/obs"
	"softsoa/internal/obs/journal"
	"softsoa/internal/policy"
)

func main() {
	addr := flag.String("addr", ":8700", "listen address")
	opsAddr := flag.String("ops-addr", "",
		"operator listener serving /debug/pprof, /debug/vars, /metrics and /debug/traces (empty disables)")
	linkCost := flag.Float64("link-cost", broker.DefaultLinkPenalty.Cost,
		"added cost per cross-region pipeline hop")
	linkFactor := flag.Float64("link-factor", broker.DefaultLinkPenalty.Factor,
		"reliability factor per cross-region pipeline hop")
	capabilities := flag.String("capabilities", "",
		"comma-separated capability vocabulary enabling MUST/MAY policies (e.g. http-auth,gzip)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second,
		"per-request handling deadline (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 3,
		"consecutive provider failures that open its circuit breaker")
	breakerOpen := flag.Duration("breaker-open", 30*time.Second,
		"how long an open breaker rejects a provider before a half-open probe")
	failover := flag.Bool("failover", false,
		"renegotiate an SLA against healthy providers when its violation rate over -slo-fast-window crosses -failover-rate")
	failoverRate := flag.Float64("failover-rate", 0.5,
		"violation rate (violations/observations) over -slo-fast-window above which an SLA is at risk and fails over")
	failoverMinObs := flag.Int64("failover-min-obs", 3,
		"minimum observations over -slo-fast-window before an SLA can be at risk and fail over")
	solveCache := flag.Int("solve-cache", 4096,
		"entries in the content-addressed solve cache serving repeat negotiations and renegotiations (0 disables)")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	journalDir := flag.String("journal-dir", "",
		"dump each finished flight-recorder journal as <id>.jsonl in this directory (empty disables)")
	journalRetention := flag.Int("journal-retention", 256,
		"how many journals GET /v1/negotiations/{id}/journal retains (FIFO eviction)")
	stateDir := flag.String("state-dir", "",
		"durable state directory (snapshot + WAL): broker state survives crashes and restarts (empty disables)")
	snapshotEvery := flag.Int("snapshot-every", 256,
		"WAL records between snapshots compacting the log (0 disables periodic snapshots)")
	maxInflight := flag.Int("max-inflight", 0,
		"concurrent requests admitted on the hot routes; excess is queued then shed with 429 (0 disables admission control)")
	admissionQueue := flag.Int("admission-queue", 0,
		"requests allowed to wait for a hot-route slot beyond -max-inflight")
	drainDeadline := flag.Duration("drain-deadline", 10*time.Second,
		"how long a SIGTERM/SIGINT drain waits for in-flight requests before exiting")
	sloSweepEvery := flag.Duration("slo-sweep-every", 10*time.Second,
		"SLO reconciliation sweep period and failover-window slot width (must be > 0)")
	sloFastWindow := flag.Duration("slo-fast-window", time.Minute,
		"failover window: -failover-rate and -failover-min-obs are judged over it")
	sloSlowWindow := flag.Duration("slo-slow-window", time.Hour,
		"slow burn-rate window providing the long-term violation-rate backdrop")
	flag.Parse()

	if *sloSweepEvery <= 0 {
		fmt.Fprintf(os.Stderr, "brokerd: -slo-sweep-every must be > 0, got %v\n", *sloSweepEvery)
		os.Exit(2)
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "brokerd: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logJSON, level)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// The registry is created here rather than inside the server so
	// daemon-level series (the journal sink's error counter) land on
	// the same /metrics surface.
	reg := obs.NewRegistry()
	opts := []broker.ServerOption{
		broker.WithMetricsRegistry(reg),
		broker.WithRequestTimeout(*requestTimeout),
		broker.WithBreaker(broker.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			OpenTimeout:      *breakerOpen,
		}),
		broker.WithSolveCache(cache.New(*solveCache)),
		broker.WithLogger(logger),
		broker.WithJournalRetention(*journalRetention),
	}
	opts = append(opts,
		broker.WithSLO(broker.SLOConfig{
			SweepEvery: *sloSweepEvery,
			FastWindow: *sloFastWindow,
			SlowWindow: *sloSlowWindow,
		}),
		broker.WithFailover(broker.FailoverPolicy{
			Enabled:         *failover,
			ViolationRate:   *failoverRate,
			MinObservations: *failoverMinObs,
		}))
	if *capabilities != "" {
		names := strings.Split(*capabilities, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		vocab, err := policy.NewVocabulary(names...)
		if err != nil {
			fatal("invalid capability vocabulary", "err", err)
		}
		opts = append(opts, broker.WithServerVocabulary(vocab))
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fatal("create journal dir", "err", err)
		}
		sinkErrors := reg.Counter("journal_sink_errors_total",
			"Journal dumps that failed to reach -journal-dir.")
		opts = append(opts, broker.WithJournalSink(journalDumper(*journalDir, logger, sinkErrors)))
	}
	var st store.Store
	if *stateDir != "" {
		var err error
		st, err = store.Open(*stateDir)
		if err != nil {
			fatal("open state dir", "err", err)
		}
		opts = append(opts,
			broker.WithStateStore(st),
			broker.WithSnapshotEvery(*snapshotEvery))
	}
	if *maxInflight > 0 {
		opts = append(opts, broker.WithAdmission(broker.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueue:    *admissionQueue,
		}))
	}
	srv := broker.NewServer(broker.LinkPenalty{Cost: *linkCost, Factor: *linkFactor}, opts...)
	if st != nil {
		stats, err := srv.Recover(context.Background())
		if err != nil {
			fatal("recover state", "err", err)
		}
		logger.Info("durable state recovered", "dir", *stateDir,
			"slas", stats.SLAs, "providers", stats.Providers,
			"replayed", stats.Replayed, "truncated", stats.Truncated)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The SLO reconciler sweeps every live SLA on its own goroutine,
	// aging the failover windows and publishing compliance, burn-rate
	// and at-risk series; it exits with the signal context at drain
	// time.
	go srv.SLO().Run(ctx)
	logger.Info("SLO reconciler running",
		"sweep_every", *sloSweepEvery, "fast_window", *sloFastWindow,
		"slow_window", *sloSlowWindow, "failover_rate", *failoverRate,
		"failover_min_obs", *failoverMinObs)

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsSrv = &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux(srv, logger),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("ops listener up (pprof, expvar, metrics, traces)", "addr", *opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener", "err", err)
			}
		}()
	}

	go func() {
		<-ctx.Done()
		// Graceful drain: refuse new hot-route work, then wait (under
		// the deadline) for in-flight requests to finish. The final
		// snapshot and store close happen in main, after
		// ListenAndServe returns — no handler can race them.
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainDeadline)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if opsSrv != nil {
			if err := opsSrv.Shutdown(shutdownCtx); err != nil {
				logger.Error("ops shutdown", "err", err)
			}
		}
	}()

	logger.Info("brokerd listening",
		"addr", *addr, "link_cost", *linkCost, "link_factor", *linkFactor)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listen", "err", err)
	}
	if st != nil {
		if err := srv.Flush(); err != nil {
			logger.Error("final snapshot", "err", err)
		}
		if err := st.Close(); err != nil {
			logger.Error("close state store", "err", err)
		}
		logger.Info("durable state flushed", "dir", *stateDir)
	}
	logger.Info("brokerd stopped")
}

func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q", s)
}

// journalDumper writes each finished journal as <id>.jsonl under dir.
// Renegotiations re-finish the same journal, atomically replacing the
// file with the extended recording (write-then-rename, so a reader
// never sees a torn journal). Failed dumps are logged and counted on
// journal_sink_errors_total — a rising counter means the journal
// directory is losing recordings (full disk, bad permissions) even
// though the broker itself keeps serving.
func journalDumper(dir string, logger *slog.Logger, errCount *obs.Counter) func(*journal.Journal) {
	fail := func(id string, err error) {
		errCount.Inc()
		logger.Warn("journal dump", "journal", id, "err", err)
	}
	return func(j *journal.Journal) {
		id := j.Meta().ID
		if id == "" {
			return
		}
		path := filepath.Join(dir, id+".jsonl")
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			fail(id, err)
			return
		}
		err = j.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			//lint:ignore errcheck best-effort cleanup of the temp file
			_ = os.Remove(tmp)
			fail(id, err)
			return
		}
		logger.Debug("journal dumped", "journal", id, "path", path)
	}
}

// opsMux builds the operator-only surface: the stdlib profilers, the
// expvar dump, the broker's Prometheus metrics and its trace ring.
// It is kept off the public listener so profiling endpoints are never
// internet-reachable by accident.
func opsMux(srv *broker.Server, logger *slog.Logger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", srv.Metrics().Handler())
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := srv.Traces().WriteJSON(w); err != nil {
			logger.Error("trace dump", "err", err)
		}
	})
	return mux
}
