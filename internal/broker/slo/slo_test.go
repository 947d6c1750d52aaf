package slo

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"softsoa/internal/obs"
)

// fakeSource is a programmable sample feed.
type fakeSource struct {
	mu      sync.Mutex
	samples []Sample
}

func (f *fakeSource) SLOSamples() []Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Sample(nil), f.samples...)
}

func (f *fakeSource) set(samples ...Sample) {
	f.mu.Lock()
	f.samples = samples
	f.mu.Unlock()
}

func testReconciler(t *testing.T, src Source) *Reconciler {
	t.Helper()
	return New(Config{Source: src, FastWindow: time.Minute, SlowWindow: time.Hour, BurnThreshold: 0.5})
}

func TestSweepComplianceAndSnapshot(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	src.set(
		Sample{ID: "sla-1", Provider: "p1", Metric: "cost", Negotiated: 20, Drift: 0, Observations: 10, Violations: 0},
		Sample{ID: "sla-2", Provider: "p2", Metric: "cost", Negotiated: 20, Drift: 3.5, Observations: 8, Violations: 2},
	)
	r.Sweep(context.Background())

	snap := r.Snapshot()
	if snap.Sweeps != 1 {
		t.Fatalf("Sweeps = %d, want 1", snap.Sweeps)
	}
	if len(snap.SLAs) != 2 {
		t.Fatalf("snapshot has %d SLAs, want 2", len(snap.SLAs))
	}
	if snap.SLAs[0].ID != "sla-1" || snap.SLAs[1].ID != "sla-2" {
		t.Fatalf("snapshot order = %s,%s; want sla-1,sla-2", snap.SLAs[0].ID, snap.SLAs[1].ID)
	}
	if got := snap.SLAs[0].Compliance; got != 1 {
		t.Errorf("sla-1 compliance = %g, want 1", got)
	}
	if got := snap.SLAs[1].Compliance; got != 0.75 {
		t.Errorf("sla-2 compliance = %g, want 0.75", got)
	}
	if got := snap.SLAs[1].Drift; got != 3.5 {
		t.Errorf("sla-2 drift = %g, want 3.5", got)
	}
	if got := r.compliance.With("sla-2", "p2").Value(); got != 0.75 {
		t.Errorf("slo_compliance{sla-2,p2} = %g, want 0.75", got)
	}
	if got := r.tracked.Value(); got != 2 {
		t.Errorf("slo_slas_tracked = %g, want 2", got)
	}
	if snap.DriftP50 <= 0 {
		t.Errorf("DriftP50 = %g, want > 0 after non-zero drift observations", snap.DriftP50)
	}
}

// TestBurnRateWindows: the reconciler publishes the windows the
// source counted; lifetime compliance comes from the lifetime counts,
// not from the windows.
func TestBurnRateWindows(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	src.set(Sample{ID: "sla-1", Provider: "p1", Observations: 10, Violations: 10,
		Fast: Window{10, 10}, Slow: Window{10, 10}})
	r.Sweep(context.Background())
	if got := r.burnRate.With("sla-1", "fast").Value(); got != 1 {
		t.Fatalf("fast burn after violating sweep = %g, want 1", got)
	}
	if got := r.burnRate.With("sla-1", "slow").Value(); got != 1 {
		t.Fatalf("slow burn after violating sweep = %g, want 1", got)
	}

	// The violations aged out of the fast window; ten fresh clean
	// observations fill it.
	src.set(Sample{ID: "sla-1", Provider: "p1", Observations: 20, Violations: 10,
		Fast: Window{10, 0}, Slow: Window{20, 10}})
	r.Sweep(context.Background())
	if got := r.burnRate.With("sla-1", "fast").Value(); got != 0 {
		t.Errorf("fast burn after clean recent window = %g, want 0", got)
	}
	if got := r.burnRate.With("sla-1", "slow").Value(); got != 0.5 {
		t.Errorf("slow burn = %g, want 0.5 (10 of 20 in the hour)", got)
	}

	// Everything aged out of the slow window too.
	src.set(Sample{ID: "sla-1", Provider: "p1", Observations: 20, Violations: 10})
	r.Sweep(context.Background())
	if got := r.burnRate.With("sla-1", "slow").Value(); got != 0 {
		t.Errorf("slow burn after windows drained = %g, want 0", got)
	}
	if got := r.compliance.With("sla-1", "p1").Value(); got != 0.5 {
		t.Errorf("lifetime compliance = %g, want 0.5", got)
	}
}

// TestAtRiskTransitions: the gauge follows the source's at-risk bit,
// and each change of it counts as one transition.
func TestAtRiskTransitions(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)
	sweep := func(atRisk bool) {
		src.set(Sample{ID: "sla-1", Provider: "p1", Observations: 5, AtRisk: atRisk})
		r.Sweep(context.Background())
	}

	sweep(false)
	if got := r.atRiskGauge.With("sla-1").Value(); got != 0 {
		t.Fatalf("slo_at_risk gauge for a healthy SLA = %g, want 0", got)
	}
	sweep(true)
	if got := r.atRiskGauge.With("sla-1").Value(); got != 1 {
		t.Errorf("slo_at_risk gauge = %g, want 1", got)
	}
	sweep(true) // still at risk: no new transition
	if got := r.transitions.With("at_risk").Value(); got != 1 {
		t.Fatalf("at_risk transitions while staying at risk = %d, want 1", got)
	}
	sweep(false)
	if got := r.atRiskGauge.With("sla-1").Value(); got != 0 {
		t.Errorf("slo_at_risk gauge after recovery = %g, want 0", got)
	}
	if got := r.transitions.With("recovered").Value(); got != 1 {
		t.Errorf("recovered transitions = %d, want 1", got)
	}
	if snap := r.Snapshot(); snap.SLAs[0].AtRisk {
		t.Error("snapshot still reports the recovered SLA at risk")
	}
}

// TestFailoverResetsWindow: after a failover the source reports the
// new provider with an empty window and lifetime counts spanning both
// bindings. The at-risk flag clears, the burn rate drops, and
// lifetime compliance keeps the pre-failover violations.
func TestFailoverResetsWindow(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	src.set(Sample{ID: "sla-1", Provider: "p1", Observations: 6, Violations: 6,
		Fast: Window{6, 6}, Slow: Window{6, 6}, AtRisk: true})
	r.Sweep(context.Background())

	src.set(Sample{ID: "sla-1", Provider: "p2", Observations: 8, Violations: 6,
		Fast: Window{2, 0}, Slow: Window{2, 0}})
	r.Sweep(context.Background())
	if got := r.atRiskGauge.With("sla-1").Value(); got != 0 {
		t.Fatalf("at-risk gauge after the failover = %g, want 0", got)
	}
	if got := r.burnRate.With("sla-1", "fast").Value(); got != 0 {
		t.Errorf("fast burn after failover = %g, want 0 (window restarted)", got)
	}
	if got := r.compliance.With("sla-1", "p2").Value(); got != 0.25 {
		t.Errorf("lifetime compliance = %g, want 0.25 (6 of 8 violated)", got)
	}
	row := r.Snapshot().SLAs[0]
	if row.Observations != 8 || row.Violations != 6 || row.Compliance != 0.25 {
		t.Errorf("snapshot row = %+v, want 6 of 8 violated", row)
	}
}

// TestStaleSLADropped: an SLA the source stops reporting disappears
// from the snapshot and its at-risk gauge resets.
func TestStaleSLADropped(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	src.set(
		Sample{ID: "sla-1", Provider: "p1", Observations: 6, Violations: 6, AtRisk: true},
		Sample{ID: "sla-2", Provider: "p1", Observations: 4},
	)
	r.Sweep(context.Background())

	src.set(Sample{ID: "sla-2", Provider: "p1", Observations: 5})
	r.Sweep(context.Background())
	snap := r.Snapshot()
	if len(snap.SLAs) != 1 || snap.SLAs[0].ID != "sla-2" {
		t.Fatalf("snapshot = %+v, want only sla-2", snap.SLAs)
	}
	if got := r.atRiskGauge.With("sla-1").Value(); got != 0 {
		t.Errorf("dropped SLA's at-risk gauge = %g, want 0", got)
	}
}

func TestSnapshotIDOrdering(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	src.set(
		Sample{ID: "sla-10", Provider: "p1", Observations: 1},
		Sample{ID: "sla-2", Provider: "p1", Observations: 1},
		Sample{ID: "sla-1", Provider: "p1", Observations: 1},
	)
	r.Sweep(context.Background())
	snap := r.Snapshot()
	got := []string{snap.SLAs[0].ID, snap.SLAs[1].ID, snap.SLAs[2].ID}
	want := []string{"sla-1", "sla-2", "sla-10"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v (numeric suffix order)", got, want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)
	src.set(Sample{ID: "sla-1", Provider: "p1", Negotiated: 12, Observations: 4, Violations: 1})
	r.Sweep(context.Background())

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
	}
	if len(snap.SLAs) != 1 || snap.SLAs[0].Negotiated != 12 {
		t.Fatalf("round-tripped snapshot = %+v", snap)
	}
}

// TestMetricsRegisteredUpFront: every slo_* family must appear in the
// exposition before the first sweep, so scrapes of a fresh broker
// document the catalogue (and CI can grep for the families).
func TestMetricsRegisteredUpFront(t *testing.T) {
	reg := obs.NewRegistry()
	New(Config{Source: &fakeSource{}, Registry: reg})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"slo_sweeps_total", "slo_slas_tracked", "slo_compliance",
		"slo_burn_rate", "slo_at_risk", "slo_at_risk_transitions_total",
		"slo_blevel_drift",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("exposition missing family %q before first sweep", fam)
		}
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	src := &fakeSource{}
	r := New(Config{Source: src, SweepEvery: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Run(ctx)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

// TestConcurrentSweepStress races sweeps against source mutation and
// snapshots. Run under -race this is the reconciler's thread-safety
// proof.
func TestConcurrentSweepStress(t *testing.T) {
	src := &fakeSource{}
	r := testReconciler(t, src)

	const iters = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			obsN := int64(i + 1)
			src.set(
				Sample{ID: "sla-1", Provider: "p1", Observations: obsN, Violations: obsN / 2},
				Sample{ID: "sla-2", Provider: "p2", Observations: obsN, Violations: obsN, AtRisk: i%2 == 0},
			)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			r.Sweep(context.Background())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()

	// One final deterministic sweep: state must be coherent.
	r.Sweep(context.Background())
	snap := r.Snapshot()
	if len(snap.SLAs) != 2 {
		t.Fatalf("snapshot has %d SLAs after stress, want 2", len(snap.SLAs))
	}
}
