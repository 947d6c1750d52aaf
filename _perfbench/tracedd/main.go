// Command tracedd is brokerd's server with benchmark instrumentation
// around it, for the benchmark's traced run. It builds broker.NewServer
// with the options brokerd uses by default plus -failover, on the
// -state-dir it is given, and times the calls into each layer from outside:
//
//   - a root span around the handler, keyed by the X-Softsoa-Trace id
//     the load generator sets;
//   - every store.Store Append and WriteSnapshot call;
//   - every slo.Reconciler Sweep, driven here on brokerd's period.
//
// The trace ring is sized to keep the parse, precheck, nmsccp,
// sla-commit and solve spans of the whole run. On SIGTERM the server
// drains like brokerd and writes all spans, the cache counters and Go
// runtime figures to the -dump file. GET /perfbench/runtime answers
// the runtime figures while it runs.
//
// Usage:
//
//	tracedd -addr 127.0.0.1:8700 -state-dir state/ -dump trace.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/broker/store"
	"softsoa/internal/cache"
	"softsoa/internal/obs"
	"softsoa/perfbench/spans"
)

// Defaults copied from brokerd's flags.
const (
	requestTimeout   = 30 * time.Second
	breakerThreshold = 3
	breakerOpen      = 30 * time.Second
	failoverRate     = 0.5
	failoverMinObs   = 3
	solveCacheSize   = 4096
	journalRetention = 256
	snapshotEvery    = 256
	sloSweepEvery    = 10 * time.Second
	sloFastWindow    = time.Minute
	sloSlowWindow    = time.Hour
	sloBurnThreshold = 0.5
	drainDeadline    = 10 * time.Second
	// traceCapacity keeps every request trace with spans of a run.
	traceCapacity = 1 << 17
)

// recorder collects intervals from concurrent callers.
type recorder struct {
	mu   sync.Mutex
	list []spans.Interval // guarded by mu
}

func (r *recorder) add(iv spans.Interval) {
	r.mu.Lock()
	r.list = append(r.list, iv)
	r.mu.Unlock()
}

func (r *recorder) all() []spans.Interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spans.Interval(nil), r.list...)
}

// timedStore times every call into the broker's durability layer.
type timedStore struct {
	store.Store
	appends, snapshots *recorder
}

func (t *timedStore) Append(typ string, data []byte) (uint64, error) {
	start := time.Now()
	seq, err := t.Store.Append(typ, data)
	t.appends.add(spans.Interval{Name: typ, Start: start.UnixNano(), End: time.Now().UnixNano(), Bytes: len(data)})
	return seq, err
}

func (t *timedStore) WriteSnapshot(state []byte, upToSeq uint64) error {
	start := time.Now()
	err := t.Store.WriteSnapshot(state, upToSeq)
	t.snapshots.add(spans.Interval{Name: "snapshot", Start: start.UnixNano(), End: time.Now().UnixNano(), Bytes: len(state)})
	return err
}

func readRuntime() spans.Runtime {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return spans.Runtime{NumGC: ms.NumGC, HeapInuse: ms.HeapInuse}
}

func main() {
	addr := flag.String("addr", ":8700", "listen address")
	stateDir := flag.String("state-dir", "", "durable state directory (required)")
	dumpPath := flag.String("dump", "trace.json", "file the spans and counters are written to at shutdown")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, false, slog.LevelInfo)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if *stateDir == "" {
		fatal("flags", errors.New("-state-dir is required"))
	}
	file, err := store.Open(*stateDir)
	if err != nil {
		fatal("open state dir", err)
	}
	appends, snapshots, sweeps, roots := &recorder{}, &recorder{}, &recorder{}, &recorder{}
	st := &timedStore{Store: file, appends: appends, snapshots: snapshots}
	solveCache := cache.New(solveCacheSize)

	opts := []broker.ServerOption{
		broker.WithMetricsRegistry(obs.NewRegistry()),
		broker.WithRequestTimeout(requestTimeout),
		broker.WithBreaker(broker.BreakerConfig{FailureThreshold: breakerThreshold, OpenTimeout: breakerOpen}),
		broker.WithSolverWorkers(0),
		broker.WithSolveCache(solveCache),
		broker.WithLogger(logger),
		broker.WithJournalRetention(journalRetention),
		broker.WithSLO(broker.SLOConfig{
			SweepEvery: sloSweepEvery, FastWindow: sloFastWindow,
			SlowWindow: sloSlowWindow, BurnThreshold: sloBurnThreshold,
		}),
		broker.WithStateStore(st),
		broker.WithSnapshotEvery(snapshotEvery),
		broker.WithTraceCapacity(traceCapacity),
		broker.WithFailover(broker.FailoverPolicy{
			Enabled: true, ViolationRate: failoverRate, MinObservations: failoverMinObs,
		}),
	}
	srv := broker.NewServer(broker.DefaultLinkPenalty, opts...)
	if _, err := srv.Recover(context.Background()); err != nil {
		fatal("recover state", err)
	}

	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/perfbench/runtime" {
			w.Header().Set("Content-Type", "application/json")
			//lint:ignore errcheck a failed write means the client is gone
			json.NewEncoder(w).Encode(readRuntime())
			return
		}
		start := time.Now()
		inner.ServeHTTP(w, r)
		roots.add(spans.Interval{
			ID: r.Header.Get(obs.TraceHeader), Name: r.Method + " " + r.URL.Path,
			Start: start.UnixNano(), End: time.Now().UnixNano(),
		})
	})
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup
	if rec := srv.SLO(); rec != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(sloSweepEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					start := time.Now()
					rec.Sweep(ctx)
					sweeps.add(spans.Interval{Name: "sweep", Start: start.UnixNano(), End: time.Now().UnixNano()})
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainDeadline)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listen", err)
	}
	wg.Wait()
	if err := srv.Flush(); err != nil {
		logger.Error("final snapshot", "err", err)
	}
	if err := st.Close(); err != nil {
		logger.Error("close state store", "err", err)
	}

	dump := spans.Dump{
		Roots: roots.all(), Appends: appends.all(), Snapshots: snapshots.all(), Sweeps: sweeps.all(),
		TracesTotal: srv.Traces().Total(), Providers: srv.Registry().Len(), Runtime: readRuntime(),
		Cache: map[string]spans.CacheTier{},
	}
	for _, t := range []cache.Tier{cache.TierTables, cache.TierFixpoint, cache.TierSearch} {
		ts := solveCache.TierStats(t)
		dump.Cache[t.String()] = spans.CacheTier{Hits: ts.Hits, Misses: ts.Misses, Evictions: ts.Evictions}
	}
	traces := srv.Traces().Snapshot()
	dump.TracesKept = len(traces)
	for _, tr := range traces {
		base := tr.Start.UnixNano()
		for _, sp := range tr.Spans {
			start := base + sp.StartMicros*int64(time.Microsecond)
			dump.Spans = append(dump.Spans, spans.Interval{
				ID: tr.ID, Name: sp.Name, Start: start, End: start + sp.DurationMicros*int64(time.Microsecond),
			})
		}
	}
	if err := writeDump(*dumpPath, &dump); err != nil {
		fatal("write dump", err)
	}
}

func writeDump(path string, d *spans.Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
