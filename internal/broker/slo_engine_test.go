package broker

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"softsoa/internal/broker/slo"
	"softsoa/internal/broker/store"
	"softsoa/internal/clock"
	"softsoa/internal/soa"
)

// sloClock is a mutable deterministic time source for the SLO tests:
// every sweep reads it, no test here ever sleeps.
type sloClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSLOClock() *sloClock {
	return &sloClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *sloClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sloServer builds a failover broker whose window runs on fc: the
// predicate trips with at least 3 observations in the last minute and
// a violation rate above 0.5. Breakers only open by failover trips.
func sloServer(fc *sloClock, opts ...ServerOption) *Server {
	base := []ServerOption{
		WithBreaker(BreakerConfig{FailureThreshold: 1000, OpenTimeout: time.Hour}),
		WithFailover(FailoverPolicy{Enabled: true, ViolationRate: 0.5, MinObservations: 3}),
		WithSLO(SLOConfig{
			Clock:      clock.Clock(fc.now),
			FastWindow: time.Minute,
			SlowWindow: time.Hour,
		}),
	}
	return NewServer(DefaultLinkPenalty, append(base, opts...)...)
}

// observeN posts n observations at level and returns the last
// response.
func observeN(t *testing.T, client *Client, id string, n int, level float64) *ObserveResponse {
	t.Helper()
	var obs *ObserveResponse
	for i := 0; i < n; i++ {
		var err error
		if obs, err = client.Observe(context.Background(), id, level); err != nil {
			t.Fatal(err)
		}
	}
	return obs
}

// sloRow sweeps and returns the snapshot row of the one live SLA.
func sloRow(t *testing.T, srv *Server) slo.SLASnapshot {
	t.Helper()
	srv.SLO().Sweep(context.Background())
	snap := srv.SLO().Snapshot()
	if len(snap.SLAs) != 1 {
		t.Fatalf("snapshot tracks %d SLAs, want 1", len(snap.SLAs))
	}
	return snap.SLAs[0]
}

// negotiateFlaky publishes a cheap flaky provider and a pricier
// backup, then negotiates an agreement that binds to flaky at cost 2.
// Observing level 6 violates it; level 2 complies.
func negotiateFlaky(t *testing.T, client *Client) *soa.SLA {
	t.Helper()
	ctx := context.Background()
	if err := client.Publish(ctx, costDoc("flaky", "svc", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(ctx, costDoc("backup", "svc", 3, 0, "us")); err != nil {
		t.Fatal(err)
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "svc", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4), Upper: fptr(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sla.Providers[0] != "flaky" {
		t.Fatalf("bound %s, want flaky", sla.Providers[0])
	}
	return sla
}

// TestSLOHandoffDeterministic walks one SLA through healthy →
// at-risk → failed-over under the injected clock. The failover lands
// on the violating observation that makes the fast-window predicate
// true, and the sweeps around it report the same predicate.
func TestSLOHandoffDeterministic(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	sla := negotiateFlaky(t, client)

	// Healthy: compliant observations only.
	observeN(t, client, sla.ID, 2, 2)
	if row := sloRow(t, srv); row.AtRisk || row.Compliance != 1 || row.FastBurnRate != 0 {
		t.Fatalf("healthy row = %+v, want compliant and not at risk", row)
	}

	// Degrading: two violations bring the window to 2 of 4, exactly
	// the threshold. The comparison is strict, so no failover, and the
	// sweep agrees.
	fc.advance(10 * time.Second)
	if obs := observeN(t, client, sla.ID, 2, 6); !obs.Violated || obs.FailedOver {
		t.Fatalf("at-threshold observation = %+v, want violated without failover", obs)
	}
	if row := sloRow(t, srv); row.AtRisk || row.FastBurnRate != 0.5 {
		t.Fatalf("at-threshold row = %+v, want burn 0.5 and not at risk", row)
	}

	// At risk: the third violation makes it 3 of 5 and fails over on
	// that very observation.
	obs := observeN(t, client, sla.ID, 1, 6)
	if !obs.Violated || !obs.FailedOver || obs.Provider != "backup" {
		t.Fatalf("crossing observation = %+v, want violated and failed over to backup", obs)
	}
	got, err := client.SLA(ctx, sla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Providers[0] != "backup" || got.Version <= sla.Version {
		t.Fatalf("after failover: bound to %s at v%d, want backup past v%d", got.Providers[0], got.Version, sla.Version)
	}

	// Failed over: the fresh binding's window is empty, so the next
	// sweep reports it healthy; lifetime compliance still counts the
	// old binding's 3 violations of 5.
	fc.advance(10 * time.Second)
	row := sloRow(t, srv)
	if row.AtRisk || row.Provider != "backup" || row.FastBurnRate != 0 {
		t.Fatalf("post-failover row = %+v, want backup, burn 0, not at risk", row)
	}
	if row.Observations != 5 || row.Violations != 3 {
		t.Fatalf("post-failover lifetime = %d/%d, want 3 of 5 violated", row.Violations, row.Observations)
	}
	if got := srv.bm.failovers.With("rebound").Value(); got != 1 {
		t.Fatalf("rebound failovers = %d, want 1", got)
	}
}

// TestSLOObservePathConsultsAtRisk: when the failover attempt is
// stuck (no healthy replacement), the predicate stays true, the sweep
// reports the SLA at risk, and the next violating observation after a
// replacement appears rebinds it.
func TestSLOObservePathConsultsAtRisk(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	// Only one provider: the failover has nowhere to go.
	if err := client.Publish(ctx, costDoc("flaky", "svc", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "svc", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4), Upper: fptr(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs := observeN(t, client, sla.ID, 3, 6); obs.FailedOver {
		t.Fatal("failed over with no replacement available")
	}
	if got := srv.bm.failovers.With("stuck").Value(); got != 1 {
		t.Fatalf("stuck failovers = %d, want 1", got)
	}
	if row := sloRow(t, srv); !row.AtRisk {
		t.Fatalf("row after stuck attempt = %+v, want at risk", row)
	}

	// A replacement appears. flaky's breaker was tripped by the stuck
	// attempt, so the next violation's renegotiation can only choose
	// backup.
	if err := client.Publish(ctx, costDoc("backup", "svc", 3, 0, "us")); err != nil {
		t.Fatal(err)
	}
	obs := observeN(t, client, sla.ID, 1, 6)
	if !obs.FailedOver || obs.Provider != "backup" {
		t.Fatalf("observe after stuck attempt: failedOver=%t provider=%s, want true/backup",
			obs.FailedOver, obs.Provider)
	}
	if row := sloRow(t, srv); row.AtRisk || row.Provider != "backup" {
		t.Fatalf("row after rebind = %+v, want backup and not at risk", row)
	}
	if got := srv.bm.failovers.With("rebound").Value(); got != 1 {
		t.Fatalf("rebound failovers = %d, want 1", got)
	}
}

// TestSLOStaleViolationsAgeOut: observations older than the fast
// window no longer count toward failover. Two violations, then two
// fast windows of silence, then one more: the window holds a single
// observation, below MinObservations, so the SLA stays bound. A
// lifetime rate would read 3 of 3 and fail over.
func TestSLOStaleViolationsAgeOut(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	sla := negotiateFlaky(t, client)

	observeN(t, client, sla.ID, 2, 6)
	fc.advance(2 * time.Minute)
	if obs := observeN(t, client, sla.ID, 1, 6); !obs.Violated || obs.FailedOver || obs.Provider != "flaky" {
		t.Fatalf("observation after the window aged = %+v, want violated, still bound to flaky", obs)
	}
	row := sloRow(t, srv)
	if row.AtRisk || row.FastBurnRate != 1 || row.Violations != 3 {
		t.Fatalf("row = %+v, want 3 lifetime violations, fast burn 1 over 1 observation, not at risk", row)
	}
}

// TestSLOMinObservationsGate: a single violating probe on a quiet SLA
// does not put it at risk; the predicate needs MinObservations in the
// window. Failover is off here, and the at-risk gauge still reports
// the predicate under the default policy (0.5 over >= 3).
func TestSLOMinObservationsGate(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc, WithFailover(FailoverPolicy{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	sla := negotiateFlaky(t, client)

	observeN(t, client, sla.ID, 1, 6)
	if row := sloRow(t, srv); row.AtRisk {
		t.Fatalf("row after one violation = %+v, want not at risk (below MinObservations)", row)
	}
	fc.advance(time.Second)
	if obs := observeN(t, client, sla.ID, 2, 6); obs.FailedOver {
		t.Fatal("failed over with failover disabled")
	}
	if row := sloRow(t, srv); !row.AtRisk || row.Provider != "flaky" {
		t.Fatalf("row after three violations = %+v, want at risk, still bound to flaky", row)
	}
}

// TestSLODebugEndpoint exercises GET /v1/debug/slo end to end.
func TestSLODebugEndpoint(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	sla := negotiateFlaky(t, client)
	if _, err := client.Observe(context.Background(), sla.ID, 6); err != nil {
		t.Fatal(err)
	}
	srv.SLO().Sweep(context.Background())

	resp, err := http.Get(ts.URL + "/v1/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	//lint:ignore errcheck test response body close
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/slo: %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var snap slo.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Sweeps != 1 || len(snap.SLAs) != 1 || snap.SLAs[0].ID != sla.ID {
		t.Fatalf("snapshot = %+v, want 1 sweep covering %s", snap, sla.ID)
	}
	if snap.SLAs[0].Violations != 1 {
		t.Fatalf("snapshot violations = %d, want 1", snap.SLAs[0].Violations)
	}

}

// TestSLOFailoverRecovery: a state directory written by an earlier
// broker may hold slofailover records, which its sweep wrote when it
// rebound an SLA. Nothing writes them now, but recovery still replays
// them: a WAL with a hand-built slofailover record recovers
// byte-exact to the state of the same failover made live.
func TestSLOFailoverRecovery(t *testing.T) {
	ctx := context.Background()
	mem := store.NewMemory()
	legacy := sloServer(newSLOClock(), WithStateStore(mem), WithSnapshotEvery(0))
	lts := httptest.NewServer(legacy.Handler())
	lclient := NewClient(lts.URL, lts.Client())
	sla := negotiateFlaky(t, lclient)
	observeN(t, lclient, sla.ID, 2, 6)
	lts.Close()
	// The sweep-triggered rebind as an earlier broker journalled it:
	// flaky tripped, the replay negotiated with backup alone. Then one
	// compliant observation of the new binding.
	for _, rec := range []struct{ typ, data string }{
		{recSLOFailover, `{"id":"sla-1","failedOver":true,"provider":"backup",` +
			`"offer":{"Name":"fee","Metric":"cost","Base":3,"PerUnit":0,"Resource":"failures","MaxUnits":10},` +
			`"feedback":[{"provider":"flaky","kind":"trip"},{"provider":"backup","kind":"success"}]}`},
		{recObserve, `{"id":"sla-1","level":3,"violated":false,"feedback":[{"provider":"backup","kind":"success"}]}`},
	} {
		if _, err := mem.Append(rec.typ, []byte(rec.data)); err != nil {
			t.Fatal(err)
		}
	}

	// The same history made live: the third violation fails over.
	live := sloServer(newSLOClock())
	ts := httptest.NewServer(live.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	sla = negotiateFlaky(t, client)
	if obs := observeN(t, client, sla.ID, 3, 6); !obs.FailedOver {
		t.Fatal("setup: the live SLA did not fail over")
	}
	observeN(t, client, sla.ID, 1, 3)
	want := stateBodies(t, ts.URL, []string{sla.ID})

	srv := sloServer(newSLOClock(), WithStateStore(mem), WithSnapshotEvery(0))
	stats, err := srv.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SLAs != 1 || stats.Replayed != len(mem.Records()) {
		t.Fatalf("recovered %d SLAs from %d of %d records, want 1 from all", stats.SLAs, stats.Replayed, len(mem.Records()))
	}
	rts := httptest.NewServer(srv.Handler())
	defer rts.Close()
	got := stateBodies(t, rts.URL, []string{sla.ID})
	for p, w := range want {
		if got[p] != w {
			t.Errorf("recovered %s diverged from the live failover\n--- live ---\n%s\n--- recovered ---\n%s", p, w, got[p])
		}
	}
}

// TestSLOConcurrentObserveSweepStress races observations (violating
// and compliant), sweeps under an advancing fake clock, direct
// samples and debug snapshots. Under -race this is the wiring's
// thread-safety and deadlock-freedom proof.
func TestSLOConcurrentObserveSweepStress(t *testing.T) {
	fc := newSLOClock()
	srv := sloServer(fc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	sla := negotiateFlaky(t, client)
	rec := srv.SLO()

	const iters = 150
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			level := 2.0
			if i%3 == 0 {
				level = 6
			}
			if _, err := client.Observe(ctx, sla.ID, level); err != nil {
				t.Errorf("observe: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec.Sweep(ctx)
			fc.advance(time.Second)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			srv.SLOSamples()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			resp, err := http.Get(ts.URL + "/v1/debug/slo")
			if err != nil {
				t.Errorf("debug/slo: %v", err)
				return
			}
			//lint:ignore errcheck test response body drain
			_, _ = io.Copy(io.Discard, resp.Body)
			//lint:ignore errcheck test response body close
			_ = resp.Body.Close()
		}
	}()
	wg.Wait()

	// Final coherence check: one more sweep, snapshot parses and still
	// tracks the SLA.
	rec.Sweep(ctx)
	snap := rec.Snapshot()
	if len(snap.SLAs) != 1 || snap.SLAs[0].Observations < iters {
		t.Fatalf("post-stress snapshot = %+v, want >= %d observations on one SLA", snap.SLAs, iters)
	}
}
