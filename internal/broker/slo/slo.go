// Package slo is the broker's SLO layer: a periodic reconciliation
// sweep that walks every live SLA and publishes the aggregate
// dependability signals the paper's monitoring story calls for —
// per-SLA lifetime compliance gauges, a blevel-drift histogram (how
// far the observed level has strayed from the negotiated one), the
// violation rate over a fast (~1m) and a slow (~1h) window, and the
// at-risk bit. The reconciler publishes; it does not decide. The
// broker keeps each SLA's windowed counts with its binding and
// evaluates the one failover predicate on every violating
// observation; the at-risk bit a sample carries is that same
// predicate, so slo_at_risk and the failover decision always agree.
// Each at-risk and recovered transition is counted and logged as a
// structured slog event carrying the SLA id and the sweep's trace id.
//
// Production runs the sweep on a ticker (Run); tests call Sweep
// directly over a canned Source, with no sleeps.
package slo

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"softsoa/internal/obs"
)

// Default periods, shared with the broker's failover window.
const (
	DefaultSweepEvery = 10 * time.Second
	DefaultFastWindow = time.Minute
	DefaultSlowWindow = time.Hour
)

// Window is an SLA's observation and violation counts over one burn
// window.
type Window struct {
	Observations int64
	Violations   int64
}

// Rate is Violations/Observations, 0 with no observations.
func (w Window) Rate() float64 { return rate(w.Violations, w.Observations) }

// Sample is one live SLA's compliance state at sweep time, produced
// by the Source (the broker).
type Sample struct {
	// ID is the SLA id ("sla-7").
	ID string
	// Provider is the currently bound provider.
	Provider string
	// Metric names the negotiated QoS metric.
	Metric string
	// Negotiated is the agreed blevel currently in force.
	Negotiated float64
	// Drift is the semiring distance from the negotiated blevel to
	// the worst observed level, 0 while the agreement is honoured.
	// The source computes it in the session's semiring, where "worse"
	// is direction-dependent (higher cost, lower reliability).
	Drift float64
	// Observations and Violations are lifetime counts: they span
	// every binding the SLA has had, failovers included.
	Observations int64
	Violations   int64
	// Fast and Slow are the current binding's counts over the fast
	// and slow windows; a failover restarts both.
	Fast, Slow Window
	// AtRisk is the failover predicate over Fast.
	AtRisk bool
}

// Source supplies the sweep's input: a snapshot of every live SLA.
// The broker implements it over its entry map; tests implement it
// with canned samples.
type Source interface {
	SLOSamples() []Sample
}

// Config parameterises a Reconciler. The zero value of each field
// selects the documented default.
type Config struct {
	// Source supplies the per-SLA samples (required).
	Source Source
	// SweepEvery is Run's tick period (default DefaultSweepEvery).
	SweepEvery time.Duration
	// FastWindow and SlowWindow are the windows the source counts
	// over (defaults DefaultFastWindow and DefaultSlowWindow). They
	// are reported in snapshots; the source does the counting.
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold is the fast-window violation rate the source's
	// at-risk bit is judged against (default 0.5), reported in
	// snapshots and at-risk events.
	BurnThreshold float64
	// Registry receives the slo_* metric families (default: a
	// private registry, useful only in tests).
	Registry *obs.Registry
	// Logger receives the structured at-risk / recovered events
	// (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SweepEvery <= 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.FastWindow <= 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 0.5
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// driftBuckets span the blevel distances the shipped metrics produce:
// sub-unit drifts for the [0,1] carriers (reliability, preference),
// larger ones for cost/downtime totals.
var driftBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// Reconciler is the sweep engine. Construct with New; run with Run or
// drive sweeps directly with Sweep.
type Reconciler struct {
	cfg Config

	sweeps      *obs.Counter
	tracked     *obs.Gauge
	compliance  *obs.GaugeVec   // by sla, provider
	burnRate    *obs.GaugeVec   // by sla, window (fast/slow)
	atRiskGauge *obs.GaugeVec   // by sla
	transitions *obs.CounterVec // by direction (at_risk/recovered)
	drift       *obs.Histogram

	mu     sync.Mutex
	latest []Sample        // guarded by mu; the latest sweep's samples, in id order
	atRisk map[string]bool // guarded by mu; each tracked SLA's at-risk bit
}

// New returns a reconciler over cfg. Every slo_* metric family is
// registered up front, so a scrape of a fresh broker already
// documents the catalogue.
func New(cfg Config) *Reconciler {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	r := &Reconciler{
		cfg: cfg,
		sweeps: reg.Counter("slo_sweeps_total",
			"SLO reconciliation sweeps completed."),
		tracked: reg.Gauge("slo_slas_tracked",
			"Live SLAs covered by the latest SLO sweep."),
		compliance: reg.GaugeVec("slo_compliance",
			"Lifetime compliance ratio per SLA (1 - violations/observations; 1 with no data).",
			"sla", "provider"),
		burnRate: reg.GaugeVec("slo_burn_rate",
			"Violation rate per SLA over the fast and slow burn windows.",
			"sla", "window"),
		atRiskGauge: reg.GaugeVec("slo_at_risk",
			"1 while the SLA's fast window meets the failover predicate (enough observations, violation rate above the threshold).",
			"sla"),
		transitions: reg.CounterVec("slo_at_risk_transitions_total",
			"At-risk state transitions, by direction (at_risk / recovered).",
			"direction"),
		drift: reg.Histogram("slo_blevel_drift",
			"Distance from the negotiated blevel to the worst observed level, per SLA per sweep.",
			driftBuckets),
		atRisk: make(map[string]bool),
	}
	// Materialise both transition series at zero so the family has
	// samples (not just headers) before the first transition — scrapes
	// and smoke checks can rely on its presence.
	r.transitions.With("at_risk")
	r.transitions.With("recovered")
	return r
}

// Run drives Sweep on a ticker until ctx is cancelled. It is the
// production loop; tests call Sweep directly.
func (r *Reconciler) Run(ctx context.Context) {
	t := time.NewTicker(r.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Sweep(ctx)
		}
	}
}

// Sweep performs one reconciliation pass: pull samples from the
// source, publish the gauges, and count and log the at-risk
// transitions. The source is consulted and the events are logged
// outside the reconciler's lock.
func (r *Reconciler) Sweep(ctx context.Context) {
	if obs.TraceFrom(ctx) == nil {
		ctx = obs.ContextWithTrace(ctx, obs.NewTrace(""))
	}
	samples := r.cfg.Source.SLOSamples()
	sort.Slice(samples, func(i, j int) bool { return idLess(samples[i].ID, samples[j].ID) })

	var changed []Sample
	r.mu.Lock()
	next := make(map[string]bool, len(samples))
	for _, s := range samples {
		if s.AtRisk != r.atRisk[s.ID] {
			changed = append(changed, s)
		}
		next[s.ID] = s.AtRisk
		// Publish under the lock so a scrape races at most one sweep.
		r.compliance.With(s.ID, s.Provider).Set(1 - rate(s.Violations, s.Observations))
		r.burnRate.With(s.ID, "fast").Set(s.Fast.Rate())
		r.burnRate.With(s.ID, "slow").Set(s.Slow.Rate())
		r.atRiskGauge.With(s.ID).Set(bit(s.AtRisk))
		r.drift.Observe(s.Drift)
	}
	// SLAs the source no longer reports (expired, evicted) drop out.
	for id := range r.atRisk {
		if _, ok := next[id]; !ok {
			r.atRiskGauge.With(id).Set(0)
		}
	}
	r.atRisk = next
	r.latest = samples
	r.tracked.Set(float64(len(samples)))
	r.sweeps.Inc()
	r.mu.Unlock()

	// The sweep's trace rides ctx, so a trace-aware handler
	// (obs.NewLogger, what brokerd installs) stamps every event
	// below with the trace id.
	for _, s := range changed {
		if s.AtRisk {
			r.transitions.With("at_risk").Inc()
			r.cfg.Logger.WarnContext(ctx, "SLA at risk",
				"sla", s.ID, "provider", s.Provider,
				"fast_burn_rate", s.Fast.Rate(), "fast_observations", s.Fast.Observations,
				"threshold", r.cfg.BurnThreshold)
		} else {
			r.transitions.With("recovered").Inc()
			r.cfg.Logger.InfoContext(ctx, "SLA recovered", "sla", s.ID, "provider", s.Provider)
		}
	}
}

// rate is violations/observations, 0 with no observations.
func rate(viol, obs int64) float64 {
	if obs <= 0 {
		return 0
	}
	return float64(viol) / float64(obs)
}

func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SLASnapshot is one SLA's row in the debug snapshot.
type SLASnapshot struct {
	ID           string  `json:"id"`
	Provider     string  `json:"provider"`
	Negotiated   float64 `json:"negotiated"`
	Compliance   float64 `json:"compliance"`
	FastBurnRate float64 `json:"fastBurnRate"`
	SlowBurnRate float64 `json:"slowBurnRate"`
	Drift        float64 `json:"drift"`
	Observations int64   `json:"observations"`
	Violations   int64   `json:"violations"`
	AtRisk       bool    `json:"atRisk"`
}

// Snapshot is the read-only state served at /v1/debug/slo.
type Snapshot struct {
	Sweeps        int64         `json:"sweeps"`
	SweepEvery    string        `json:"sweepEvery"`
	FastWindow    string        `json:"fastWindow"`
	SlowWindow    string        `json:"slowWindow"`
	BurnThreshold float64       `json:"burnThreshold"`
	DriftP50      float64       `json:"driftP50"`
	DriftP99      float64       `json:"driftP99"`
	SLAs          []SLASnapshot `json:"slas"`
}

// Snapshot captures the reconciler's current view, SLAs in id order.
// Drift quantiles are bucket-interpolated estimates from the
// slo_blevel_drift histogram (NaN is reported as 0 while empty).
func (r *Reconciler) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Sweeps:        r.sweeps.Value(),
		SweepEvery:    r.cfg.SweepEvery.String(),
		FastWindow:    r.cfg.FastWindow.String(),
		SlowWindow:    r.cfg.SlowWindow.String(),
		BurnThreshold: r.cfg.BurnThreshold,
		SLAs:          make([]SLASnapshot, 0, len(r.latest)),
	}
	if r.drift.Count() > 0 {
		snap.DriftP50 = r.drift.Quantile(0.5)
		snap.DriftP99 = r.drift.Quantile(0.99)
	}
	for _, s := range r.latest {
		snap.SLAs = append(snap.SLAs, SLASnapshot{
			ID:           s.ID,
			Provider:     s.Provider,
			Negotiated:   s.Negotiated,
			Compliance:   1 - rate(s.Violations, s.Observations),
			FastBurnRate: s.Fast.Rate(),
			SlowBurnRate: s.Slow.Rate(),
			Drift:        s.Drift,
			Observations: s.Observations,
			Violations:   s.Violations,
			AtRisk:       s.AtRisk,
		})
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Reconciler) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// idLess orders minted ids by their numeric suffix ("sla-2" before
// "sla-10"), falling back to lexical order for foreign ids.
func idLess(a, b string) bool {
	num := func(id string) (int, bool) {
		i := strings.LastIndexByte(id, '-')
		if i < 0 {
			return 0, false
		}
		n, err := strconv.Atoi(id[i+1:])
		return n, err == nil
	}
	x, xok := num(a)
	y, yok := num(b)
	if xok && yok && x != y {
		return x < y
	}
	return a < b
}
