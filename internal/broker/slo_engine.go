package broker

import (
	"net/http"
	"time"

	"softsoa/internal/broker/slo"
	"softsoa/internal/clock"
)

// SLO layer: failover has one model, the violation rate over the
// fast window. Each SLA's monitor keeps its binding's observations in
// time-slotted window counts read with the SLO clock, and
// handleObserve evaluates the failover predicate on every violating
// observation. The server also owns an slo.Reconciler fed from the
// live SLA entries: its sweep ages the windows and publishes them,
// and its at-risk bit is the same predicate, so slo_at_risk and the
// failover decision never disagree. brokerd runs the sweep loop;
// tests drive Sweep directly under a fake clock.

// SLOConfig tunes the failover window and the server's SLO
// reconciler. The zero value selects the documented defaults.
type SLOConfig struct {
	// SweepEvery is the reconciliation period and the width of a
	// window slot (default 10s).
	SweepEvery time.Duration
	// FastWindow is the failover window; SlowWindow is the slow burn
	// window and bounds each SLA's window memory (default 1m / 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// Deprecated: nothing reads BurnThreshold. The at-risk threshold
	// is FailoverPolicy.ViolationRate.
	BurnThreshold float64
	// Clock is the window's time source (default clock.Wall; tests
	// inject a fake).
	Clock clock.Clock
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.SweepEvery <= 0 {
		c.SweepEvery = slo.DefaultSweepEvery
	}
	if c.FastWindow <= 0 {
		c.FastWindow = slo.DefaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = slo.DefaultSlowWindow
	}
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	return c
}

// WithSLO tunes the failover window and the SLO reconciler.
func WithSLO(cfg SLOConfig) ServerOption {
	return func(c *serverConfig) { c.slo = cfg }
}

// SLO exposes the server's reconciler so brokerd can run its sweep
// loop and tests can drive sweeps deterministically.
func (s *Server) SLO() *slo.Reconciler { return s.slo }

// SLOSamples implements slo.Source: a snapshot of every live SLA's
// compliance state, with its windows aged to the SLO clock. The entry
// map is copied under s.mu, then each entry is read under its own
// lock.
func (s *Server) SLOSamples() []slo.Sample {
	s.mu.Lock()
	entries := make(map[string]*slaEntry, len(s.entries))
	for id, e := range s.entries {
		entries[id] = e
	}
	s.mu.Unlock()
	now := s.clock.Now()
	samples := make([]slo.Sample, 0, len(entries))
	for id, e := range entries {
		e.mu.Lock()
		rep := e.mon.Report()
		fast, slow := e.mon.windows(now, s.window)
		samples = append(samples, slo.Sample{
			ID:           id,
			Provider:     e.session.Provider(),
			Metric:       string(rep.Metric),
			Negotiated:   rep.AgreedLevel,
			Drift:        e.mon.drift(),
			Observations: e.priorObs + rep.Observations,
			Violations:   e.priorViol + rep.Violations,
			Fast:         fast,
			Slow:         slow,
			AtRisk:       s.failover.trips(fast),
		})
		e.mu.Unlock()
	}
	return samples
}

// handleDebugSLO serves the reconciler's read-only snapshot as JSON.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
	_ = s.slo.WriteJSON(w)
}
