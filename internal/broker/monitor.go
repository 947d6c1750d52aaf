package broker

import (
	"fmt"
	"sync"
	"time"

	"softsoa/internal/broker/slo"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
)

// Monitor tracks observed service levels against a signed agreement —
// the paper's requirement that "the composition of services can be
// monitored and checked". An observation violates the SLA when it is
// strictly worse than the agreed level in the metric's semiring
// order: a higher cost, or a lower reliability/preference.
//
// Besides its lifetime counters, a monitor the broker feeds keeps the
// failover window: the counts of its recent observations in
// time-slotted buckets, one per slot of the window spec. The window
// belongs to the binding, so a failover — which installs a fresh
// monitor — restarts it. Monitors are safe for concurrent use.
type Monitor struct {
	mu sync.Mutex
	// metric and sr are immutable after construction.
	metric       soa.Metric
	sr           semiring.Semiring[float64]
	agreed       float64 // guarded by mu
	observations int64   // guarded by mu
	violations   int64   // guarded by mu
	worst        float64 // guarded by mu
	hasWorst     bool    // guarded by mu
	// slots is the failover window, oldest first. guarded by mu
	slots []slot
}

// slot counts the observations whose clock reading fell in
// [start, start+width) of one window slot.
type slot struct {
	start     time.Time
	obs, viol int64
}

// windowSpec sizes the failover window a monitor keeps.
type windowSpec struct {
	// slot is the bucket width (the SLO sweep period).
	slot time.Duration
	// fast is the failover window; slow bounds retention and is the
	// slow burn window.
	fast, slow time.Duration
}

// NewMonitor returns a monitor for the SLA's agreed level.
func NewMonitor(sla *soa.SLA) (*Monitor, error) {
	sr, err := soa.SemiringFor(sla.Metric)
	if err != nil {
		return nil, err
	}
	return &Monitor{metric: sla.Metric, sr: sr, agreed: sla.AgreedLevel}, nil
}

// Rebase updates the agreed level after a renegotiation; history is
// kept (past violations were violations of the agreement in force at
// the time).
func (m *Monitor) Rebase(agreedLevel float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.agreed = agreedLevel
}

// counts returns the accumulated counters, for the broker's durable
// snapshots.
func (m *Monitor) counts() (observations, violations int64, worst float64, hasWorst bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observations, m.violations, m.worst, m.hasWorst
}

// restoreCounts reinstates persisted counters on a freshly rebuilt
// monitor during crash recovery. The agreed level is untouched — it is
// the restored session's.
func (m *Monitor) restoreCounts(s monitorSnap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observations, m.violations, m.worst, m.hasWorst = s.Observations, s.Violations, s.Worst, s.HasWorst
}

// Observe records one measured service level and reports whether it
// violates the agreement. It does not touch the failover window.
func (m *Monitor) Observe(level float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observeLocked(level)
}

// observeAt is Observe on the broker's live path: the observation is
// also counted in the window slot that holds now.
func (m *Monitor) observeAt(now time.Time, w windowSpec, level float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	violated := m.observeLocked(level)
	start := now.Truncate(w.slot)
	if n := len(m.slots); n == 0 || start.After(m.slots[n-1].start) {
		m.slots = append(m.slots, slot{start: start})
	}
	last := &m.slots[len(m.slots)-1]
	last.obs++
	if violated {
		last.viol++
	}
	return violated
}

// windows ages the failover window to now, dropping the slots that
// lie wholly before the slow window, and returns the counts over the
// fast and slow windows. A slot counts toward a window while any part
// of it lies inside, so a binding younger than the window is judged
// on every observation it has had.
func (m *Monitor) windows(now time.Time, w windowSpec) (fast, slow slo.Window) {
	m.mu.Lock()
	defer m.mu.Unlock()
	drop := 0
	for drop < len(m.slots) && !m.slots[drop].start.Add(w.slot).After(now.Add(-w.slow)) {
		drop++
	}
	if drop > 0 {
		m.slots = append(m.slots[:0], m.slots[drop:]...)
	}
	for _, sl := range m.slots {
		slow.Observations += sl.obs
		slow.Violations += sl.viol
		if sl.start.Add(w.slot).After(now.Add(-w.fast)) {
			fast.Observations += sl.obs
			fast.Violations += sl.viol
		}
	}
	return fast, slow
}

// observeLocked bumps the lifetime counters. Callers hold m.mu.
func (m *Monitor) observeLocked(level float64) bool {
	m.observations++
	if !m.hasWorst || semiring.Lt(m.sr, level, m.worst) {
		m.worst = level
		m.hasWorst = true
	}
	if semiring.Lt(m.sr, level, m.agreed) {
		m.violations++
		return true
	}
	return false
}

// drift returns how far the worst observed level sits from the agreed
// one when it is strictly worse in the metric's semiring order, and 0
// otherwise (including before the first observation). The SLO
// reconciler feeds this into the blevel-drift histogram.
func (m *Monitor) drift() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasWorst || !semiring.Lt(m.sr, m.worst, m.agreed) {
		return 0
	}
	d := m.worst - m.agreed
	if d < 0 {
		d = -d
	}
	return d
}

// MonitorReport summarises compliance.
type MonitorReport struct {
	// Metric is the monitored QoS metric.
	Metric soa.Metric `xml:"metric,attr"`
	// AgreedLevel is the level currently in force.
	AgreedLevel float64 `xml:"agreedLevel,attr"`
	// Observations counts reported measurements.
	Observations int64 `xml:"observations,attr"`
	// Violations counts measurements strictly worse than agreed.
	Violations int64 `xml:"violations,attr"`
	// ViolationRate is Violations/Observations (0 with no data).
	ViolationRate float64 `xml:"violationRate,attr"`
	// WorstObserved is the worst level seen (meaningless before the
	// first observation).
	WorstObserved float64 `xml:"worstObserved,attr"`
}

// Report returns the current compliance summary.
func (m *Monitor) Report() MonitorReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := MonitorReport{
		Metric:       m.metric,
		AgreedLevel:  m.agreed,
		Observations: m.observations,
		Violations:   m.violations,
	}
	if m.observations > 0 {
		r.ViolationRate = float64(m.violations) / float64(m.observations)
		r.WorstObserved = m.worst
	}
	return r
}

// String renders a one-line summary.
func (m *Monitor) String() string {
	r := m.Report()
	return fmt.Sprintf("monitor[%s agreed=%v obs=%d viol=%d rate=%.2f]",
		r.Metric, r.AgreedLevel, r.Observations, r.Violations, r.ViolationRate)
}
