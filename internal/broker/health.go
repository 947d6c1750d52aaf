package broker

import (
	"encoding/xml"
	"sort"
	"sync"
	"time"

	"softsoa/internal/broker/slo"
)

// BreakerState is the lifecycle state of a provider's circuit
// breaker.
type BreakerState int

// Breaker states: Closed passes traffic, Open rejects it, HalfOpen
// lets a single probe through to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-provider circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures
	// (negotiations that end stuck, or observations that violate the
	// SLA) that opens a provider's breaker. Zero means the default of
	// 3.
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects a provider
	// before a half-open probe is allowed. Zero means the default of
	// 30 seconds.
	OpenTimeout time.Duration
	// Clock overrides the time source (tests). Nil means time.Now.
	Clock func() time.Time
	// onTransition, when non-nil, is called on every genuine breaker
	// state change (not on same-state resets); the server feeds its
	// breaker metrics from it. It runs synchronously under the board's
	// lock, so it must be cheap and must not call back into the board.
	onTransition func(provider string, from, to BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// breaker is one provider's state. Every field is guarded by mu —
// the owning HealthBoard's mutex, since breakers are only reachable
// through its map.
type breaker struct {
	state    BreakerState // guarded by mu
	failures int          // consecutive failures while closed; guarded by mu
	openedAt time.Time    // when the breaker last opened; guarded by mu
	probing  bool         // a half-open probe is in flight; guarded by mu
}

// ProviderHealth is one provider's breaker status on the wire
// (GET /health).
type ProviderHealth struct {
	Name     string `xml:"name,attr"`
	State    string `xml:"state,attr"`
	Failures int    `xml:"consecutiveFailures,attr"`
}

// HealthResponse is the XML body returned by GET /health.
type HealthResponse struct {
	XMLName   xml.Name         `xml:"health"`
	Providers []ProviderHealth `xml:"provider"`
}

// HealthBoard tracks a circuit breaker per provider. The negotiator
// and composer consult it (via Allow) so that providers with a run of
// failures are skipped until a half-open probe shows recovery. Safe
// for concurrent use.
type HealthBoard struct {
	mu       sync.Mutex
	cfg      BreakerConfig       // immutable after construction
	breakers map[string]*breaker // guarded by mu
}

// NewHealthBoard returns a board with the given breaker config.
func NewHealthBoard(cfg BreakerConfig) *HealthBoard {
	return &HealthBoard{cfg: cfg.withDefaults(), breakers: make(map[string]*breaker)}
}

// get returns (creating if needed) the provider's breaker. Callers
// hold h.mu.
func (h *HealthBoard) get(provider string) *breaker {
	b, ok := h.breakers[provider]
	if !ok {
		b = &breaker{}
		h.breakers[provider] = b
	}
	return b
}

// Allow reports whether traffic may be sent to the provider. An open
// breaker whose timeout has elapsed transitions to half-open and
// admits exactly one probe; the probe's RecordSuccess/RecordFailure
// closes or re-opens the breaker.
func (h *HealthBoard) Allow(provider string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(provider)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if h.cfg.Clock().Sub(b.openedAt) < h.cfg.OpenTimeout {
			return false
		}
		h.transition(provider, b, BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false // one probe at a time
		}
		b.probing = true
		return true
	}
	return true
}

// RecordSuccess reports a successful interaction with the provider:
// it resets the failure run and closes a half-open breaker.
func (h *HealthBoard) RecordSuccess(provider string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(provider)
	b.failures = 0
	b.probing = false
	h.transition(provider, b, BreakerClosed)
}

// RecordFailure reports a failed interaction: a run of
// FailureThreshold consecutive failures opens the breaker, and a
// failed half-open probe re-opens it immediately.
func (h *HealthBoard) RecordFailure(provider string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(provider)
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= h.cfg.FailureThreshold {
		h.open(provider, b)
	}
}

// Trip forces the provider's breaker open, regardless of its failure
// count. The failover path uses it to quarantine a provider whose
// violation rate crossed the threshold.
func (h *HealthBoard) Trip(provider string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.open(provider, h.get(provider))
}

// open trips the breaker. Callers hold h.mu.
func (h *HealthBoard) open(provider string, b *breaker) {
	h.transition(provider, b, BreakerOpen)
	b.openedAt = h.cfg.Clock()
	b.probing = false
	b.failures = 0
}

// transition moves the breaker to the target state, firing the
// onTransition hook only when the state actually changes. Callers
// hold h.mu, so the hook runs under the board lock.
func (h *HealthBoard) transition(provider string, b *breaker, to BreakerState) {
	from := b.state
	b.state = to
	if from != to && h.cfg.onTransition != nil {
		h.cfg.onTransition(provider, from, to)
	}
}

// BreakerStatus is one provider's persistable breaker state — the
// structured complement of Snapshot's wire form.
type BreakerStatus struct {
	Provider string
	State    BreakerState
	Failures int
}

// States returns every tracked provider's breaker state and
// consecutive-failure count, sorted by provider name, for the
// broker's durable snapshots.
func (h *HealthBoard) States() []BreakerStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]BreakerStatus, 0, len(h.breakers))
	for name, b := range h.breakers {
		out = append(out, BreakerStatus{Provider: name, State: b.state, Failures: b.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// RestoreBreaker forces a provider's breaker to the given state and
// failure count during crash recovery, firing the usual transition
// hook so gauges and logs reflect the restored state. The opening
// instant of an Open breaker is not persisted, so its timeout restarts
// at the restore time: a recovered broker waits a full OpenTimeout
// before probing the provider again.
func (h *HealthBoard) RestoreBreaker(provider string, state BreakerState, failures int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(provider)
	h.transition(provider, b, state)
	b.failures = failures
	b.probing = false
	if state == BreakerOpen {
		b.openedAt = h.cfg.Clock()
	}
}

// State returns the provider's current breaker state (an open breaker
// past its timeout still reads as open until a probe is admitted).
func (h *HealthBoard) State(provider string) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.get(provider).state
}

// Snapshot lists every tracked provider's health, sorted by name.
func (h *HealthBoard) Snapshot() []ProviderHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ProviderHealth, 0, len(h.breakers))
	for name, b := range h.breakers {
		out = append(out, ProviderHealth{Name: name, State: b.state.String(), Failures: b.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FailoverPolicy is the threshold of the one failover predicate: a
// live SLA is at risk when its binding's fast window (SLOConfig
// FastWindow) holds at least MinObservations observations, with a
// violation rate above ViolationRate. With Enabled, the violating
// observation that makes the predicate true trips the bound
// provider's breaker and renegotiates the agreement against the
// remaining healthy providers; without it the predicate still drives
// the slo_at_risk gauge.
type FailoverPolicy struct {
	// Enabled turns failover on.
	Enabled bool
	// ViolationRate is the fast-window rate (violations/observations)
	// above which the SLA is at risk. Zero means the default of 0.5.
	ViolationRate float64
	// MinObservations is the minimum number of fast-window
	// observations before the SLA can be at risk. Zero means the
	// default of 3.
	MinObservations int64
}

func (p FailoverPolicy) withDefaults() FailoverPolicy {
	if p.ViolationRate <= 0 {
		p.ViolationRate = 0.5
	}
	if p.MinObservations <= 0 {
		p.MinObservations = 3
	}
	return p
}

// trips is the failover predicate over a binding's fast window.
func (p FailoverPolicy) trips(fast slo.Window) bool {
	return fast.Observations >= p.MinObservations && fast.Rate() > p.ViolationRate
}
