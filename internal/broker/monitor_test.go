package broker

import (
	"context"
	"strings"
	"testing"
	"time"

	"softsoa/internal/soa"
)

func TestMonitorCostViolations(t *testing.T) {
	mon, err := NewMonitor(&soa.SLA{Metric: soa.MetricCost, AgreedLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mon.Observe(4) {
		t.Error("cost 4 under an agreed 5 is compliant")
	}
	if mon.Observe(5) {
		t.Error("exactly the agreed level is compliant")
	}
	if !mon.Observe(7) {
		t.Error("cost 7 over an agreed 5 is a violation")
	}
	r := mon.Report()
	if r.Observations != 3 || r.Violations != 1 {
		t.Errorf("report = %+v", r)
	}
	if r.WorstObserved != 7 {
		t.Errorf("worst = %v, want 7", r.WorstObserved)
	}
	if r.ViolationRate != 1.0/3 {
		t.Errorf("violation rate = %v, want 1/3", r.ViolationRate)
	}
	if !strings.Contains(mon.String(), "viol=1") {
		t.Errorf("String = %q", mon.String())
	}
}

func TestMonitorReliabilityDirection(t *testing.T) {
	mon, err := NewMonitor(&soa.SLA{Metric: soa.MetricReliability, AgreedLevel: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if mon.Observe(0.95) {
		t.Error("reliability above agreed is compliant")
	}
	if !mon.Observe(0.5) {
		t.Error("reliability below agreed is a violation")
	}
	if got := mon.Report().WorstObserved; got != 0.5 {
		t.Errorf("worst = %v", got)
	}
}

func TestMonitorRebase(t *testing.T) {
	mon, err := NewMonitor(&soa.SLA{Metric: soa.MetricCost, AgreedLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !mon.Observe(6) {
		t.Fatal("6 violates agreed 5")
	}
	mon.Rebase(10)
	if mon.Observe(6) {
		t.Error("6 complies with rebased 10")
	}
	r := mon.Report()
	if r.Violations != 1 || r.AgreedLevel != 10 {
		t.Errorf("report = %+v", r)
	}
}

func TestMonitorUnknownMetric(t *testing.T) {
	if _, err := NewMonitor(&soa.SLA{Metric: "latency"}); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestMonitorEmptyIsHealthy(t *testing.T) {
	mon, err := NewMonitor(&soa.SLA{Metric: soa.MetricCost, AgreedLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r := mon.Report(); r.ViolationRate != 0 {
		t.Errorf("no observations: violation rate = %v, want 0", r.ViolationRate)
	}
}

// TestMonitorWindowSlots pins the failover window: observations land
// in sweep-period slots, a slot counts while any part of it lies in a
// window, slots wholly before the slow window are dropped, and the
// plain Observe used by replay leaves the window alone.
func TestMonitorWindowSlots(t *testing.T) {
	mon, err := NewMonitor(&soa.SLA{Metric: soa.MetricCost, AgreedLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := windowSpec{slot: 10 * time.Second, fast: time.Minute, slow: 5 * time.Minute}
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	mon.observeAt(t0, w, 7)                    // slot [0s,10s): violation
	mon.observeAt(t0.Add(9*time.Second), w, 4) // same slot: compliant
	mon.observeAt(t0.Add(65*time.Second), w, 7)
	mon.Observe(7) // replayed: lifetime only

	fast, slow := mon.windows(t0.Add(69*time.Second), w)
	if fast.Observations != 3 || fast.Violations != 2 {
		t.Errorf("fast window at 69s = %+v, want 3 obs / 2 viol (first slot still overlaps)", fast)
	}
	if slow.Observations != 3 {
		t.Errorf("slow window at 69s = %+v, want 3 obs", slow)
	}
	fast, slow = mon.windows(t0.Add(70*time.Second), w)
	if fast.Observations != 1 || fast.Violations != 1 {
		t.Errorf("fast window at 70s = %+v, want 1 obs / 1 viol (first slot aged out)", fast)
	}
	if slow.Observations != 3 || slow.Violations != 2 {
		t.Errorf("slow window at 70s = %+v, want 3 obs / 2 viol", slow)
	}
	if _, slow = mon.windows(t0.Add(6*time.Minute), w); slow.Observations != 1 || len(mon.slots) != 1 {
		t.Errorf("slow window at 6m = %+v with %d slots, want 1 obs in 1 slot", slow, len(mon.slots))
	}
	if _, slow = mon.windows(t0.Add(time.Hour), w); slow.Observations != 0 || len(mon.slots) != 0 {
		t.Errorf("slow window at 1h = %+v with %d slots, want empty", slow, len(mon.slots))
	}
	if r := mon.Report(); r.Observations != 4 || r.Violations != 3 {
		t.Errorf("lifetime report = %+v, want 4 obs / 3 viol", r)
	}
}

// TestHTTPMonitoringLifecycle drives negotiate → observe → compliance
// → renegotiate (rebase) → observe over the wire.
func TestHTTPMonitoringLifecycle(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	client, _ := clientFor(t, srv)
	if err := client.Publish(context.Background(), costDoc("p1", "failmgmt", 5, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	sla, err := client.Negotiate(context.Background(), NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Agreed level 5. An observed cost of 6.5 violates.
	obs, err := client.Observe(context.Background(), sla.ID, 6.5)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Violated {
		t.Error("6.5 over agreed 5 must violate")
	}
	obs, err = client.Observe(context.Background(), sla.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Violated {
		t.Error("4 under agreed 5 must comply")
	}
	rep, err := client.Compliance(context.Background(), sla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observations != 2 || rep.Violations != 1 || rep.ViolationRate != 0.5 {
		t.Errorf("report = %+v", rep)
	}

	// Renegotiation rebases the monitor (same flat requirement keeps
	// level 5 here, but the path is exercised).
	if _, err := client.Renegotiate(context.Background(), RenegotiateRequest{
		ID: sla.ID,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 0, Resource: "failures", MaxUnits: 10,
		},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err = client.Compliance(context.Background(), sla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgreedLevel != 5 {
		t.Errorf("rebased agreed level = %v", rep.AgreedLevel)
	}

	// Unknown id paths.
	if _, err := client.Observe(context.Background(), "sla-999", 1); err == nil {
		t.Error("unknown SLA should fail")
	}
	if _, err := client.Compliance(context.Background(), "sla-999"); err == nil {
		t.Error("unknown SLA should fail")
	}
}
