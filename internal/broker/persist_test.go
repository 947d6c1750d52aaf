package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"softsoa/internal/broker/store"
	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/soa"
)

// durableServer builds a broker over the given store with failover
// enabled, mirroring the brokerd production wiring.
func durableServer(st store.Store, snapshotEvery int) *Server {
	return NewServer(DefaultLinkPenalty,
		WithStateStore(st),
		WithSnapshotEvery(snapshotEvery),
		WithBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour}),
		WithFailover(FailoverPolicy{Enabled: true, ViolationRate: 0.5, MinObservations: 3}),
	)
}

// driveLifecycle exercises every persisted mutation kind against the
// server: publish, negotiate, two renegotiations (the second's ÷
// rounds), observe-to-failover, a failed negotiation and a composition
// (both of which consume ids).
// It returns the two live SLA ids.
func driveLifecycle(t *testing.T, client *Client) []string {
	t.Helper()
	ctx := context.Background()
	if err := client.Publish(ctx, costDoc("flaky", "svc", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(ctx, costDoc("backup", "svc", 3, 0, "us")); err != nil {
		t.Fatal(err)
	}
	req := NegotiateRequest{
		Service: "svc", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4), Upper: fptr(1),
	}
	sla1, err := client.Negotiate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sla1.Providers[0] != "flaky" {
		t.Fatalf("sla1 bound %s, want flaky", sla1.Providers[0])
	}
	// Accepted renegotiation to fractional values: the next one's
	// retraction (÷) then rounds, so σ stops being offer ⊗ requirement
	// bit for bit.
	if _, err := client.Renegotiate(ctx, RenegotiateRequest{
		ID: sla1.ID,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0.1, PerUnit: 0.7, Resource: "failures", MaxUnits: 10,
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Accepted renegotiation: drop the per-unit demand entirely.
	if _, err := client.Renegotiate(ctx, RenegotiateRequest{
		ID: sla1.ID,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 0, Resource: "failures", MaxUnits: 10,
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Second agreement, degraded until it fails over to backup.
	sla2, err := client.Negotiate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var failedOver bool
	for i := 0; i < 3; i++ {
		obs, err := client.Observe(ctx, sla2.ID, 6)
		if err != nil {
			t.Fatal(err)
		}
		failedOver = failedOver || obs.FailedOver
	}
	if !failedOver {
		t.Fatal("three violations should have failed sla2 over")
	}
	// A compliant observation against the fresh backup agreement.
	if _, err := client.Observe(ctx, sla2.ID, 3); err != nil {
		t.Fatal(err)
	}
	// A doomed negotiation and a composition both mint ids the
	// recovered broker must not reuse.
	impossible := req
	impossible.Lower = fptr(0.5)
	var noAgree *ErrNoAgreement
	if _, err := client.Negotiate(ctx, impossible); !errors.As(err, &noAgree) {
		t.Fatalf("impossible negotiation: err = %v, want ErrNoAgreement", err)
	}
	if _, err := client.Compose(ctx, ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"svc"},
	}); err != nil {
		t.Fatal(err)
	}
	return []string{sla1.ID, sla2.ID}
}

// stateBodies captures the wire representation of the recovered
// surface: each SLA document, its compliance report, and the breaker
// board.
func stateBodies(t *testing.T, baseURL string, ids []string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	paths := []string{"/v1/health"}
	for _, id := range ids {
		paths = append(paths, "/v1/slas/"+id, "/v1/slas/"+id+"/compliance")
	}
	for _, p := range paths {
		resp, err := http.Get(baseURL + p)
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
			t.Fatalf("GET %s: %d\n%s", p, resp.StatusCode, body)
		}
		out[p] = string(body)
	}
	return out
}

// TestRecoveryBitExact kills a broker (by abandoning it without any
// drain or flush) and recovers a fresh one from the same store: every
// SLA, session version, compliance counter and breaker state must
// come back byte-identical on the wire. Runs once with the WAL alone
// and once with snapshots compacting mid-stream.
func TestRecoveryBitExact(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
	}{
		{"wal-only", 0},
		{"snapshot-every-2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMemory()
			srv := durableServer(mem, tc.snapshotEvery)
			ts := httptest.NewServer(srv.Handler())
			client := NewClient(ts.URL, ts.Client())
			ids := driveLifecycle(t, client)
			before := stateBodies(t, ts.URL, ids)
			ts.Close() // crash: no drain, no final snapshot

			srv2 := durableServer(mem, tc.snapshotEvery)
			stats, err := srv2.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.SLAs != 2 {
				t.Errorf("recovered %d SLAs, want 2", stats.SLAs)
			}
			if stats.Providers != 2 {
				t.Errorf("recovered %d registry docs, want 2", stats.Providers)
			}
			if tc.snapshotEvery > 0 && stats.SnapshotSeq == 0 {
				t.Error("expected a snapshot to have been taken mid-stream")
			}
			ts2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(ts2.Close)
			after := stateBodies(t, ts2.URL, ids)
			for p, want := range before {
				if after[p] != want {
					t.Errorf("GET %s diverged after recovery:\nbefore: %s\nafter:  %s", p, want, after[p])
				}
			}

			// The id counter resumes past everything minted before the
			// crash (sla-1, sla-2, neg-3, comp-4).
			sla, err := NewClient(ts2.URL, ts2.Client()).Negotiate(context.Background(), NegotiateRequest{
				Service: "svc", Client: "shop", Metric: soa.MetricCost,
				Requirement: soa.Attribute{
					Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
				},
				Lower: fptr(4), Upper: fptr(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			if sla.ID != "sla-5" {
				t.Errorf("post-recovery id = %s, want sla-5", sla.ID)
			}
		})
	}
}

// TestRecoveryRestoresJournals checks that replayed negotiations and
// renegotiations re-attach flight-recorder journals, so the journal
// route keeps answering after a restart.
func TestRecoveryRestoresJournals(t *testing.T) {
	mem := store.NewMemory()
	srv := durableServer(mem, 0)
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())
	ids := driveLifecycle(t, client)
	ts.Close()

	srv2 := durableServer(mem, 0)
	if _, err := srv2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	j, err := NewClient(ts2.URL, ts2.Client()).Journal(context.Background(), ids[0])
	if err != nil {
		t.Fatalf("journal for %s after recovery: %v", ids[0], err)
	}
	// The recovered journal holds the replayed winning run plus the
	// accepted renegotiation.
	if len(j.Segments()) < 2 {
		t.Errorf("recovered journal has %d segments, want >= 2", len(j.Segments()))
	}
}

// TestRecoverNilStore keeps Recover a no-op on a store-less broker.
func TestRecoverNilStore(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	stats, err := srv.Recover(context.Background())
	if err != nil || stats != nil {
		t.Fatalf("Recover without a store = (%+v, %v), want (nil, nil)", stats, err)
	}
}

// TestFlushWritesFinalSnapshot covers the drain path: after Flush, a
// recovery needs no WAL tail at all.
func TestFlushWritesFinalSnapshot(t *testing.T) {
	mem := store.NewMemory()
	srv := durableServer(mem, 0)
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())
	ids := driveLifecycle(t, client)
	before := stateBodies(t, ts.URL, ids)
	srv.BeginDrain()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if n := len(mem.Records()); n != 0 {
		t.Errorf("WAL retains %d records after Flush, want 0 (all covered by the snapshot)", n)
	}

	srv2 := durableServer(mem, 0)
	stats, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 {
		t.Errorf("replayed %d tail records, want 0 after a clean flush", stats.Replayed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	after := stateBodies(t, ts2.URL, ids)
	for p, want := range before {
		if after[p] != want {
			t.Errorf("GET %s diverged after flush+recover:\nbefore: %s\nafter:  %s", p, want, after[p])
		}
	}
}

// TestFileStoreRecoveryAcrossProcessBoundary runs the same lifecycle
// against the disk-backed store, reopening the state directory the
// way a restarted brokerd would, including a torn WAL tail appended
// by the "crash".
func TestFileStoreRecoveryAcrossProcessBoundary(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := durableServer(st, 0)
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())
	ids := driveLifecycle(t, client)
	before := stateBodies(t, ts.URL, ids)
	ts.Close()
	// Crash mid-append: a torn frame lands after the acknowledged
	// records.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, store.WALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0bad0bad {"seq":99,"type":"negoti`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := durableServer(st2, 0)
	stats, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != 1 {
		t.Errorf("truncated = %d, want 1 (the torn frame)", stats.Truncated)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	after := stateBodies(t, ts2.URL, ids)
	for p, want := range before {
		if after[p] != want {
			t.Errorf("GET %s diverged after disk recovery:\nbefore: %s\nafter:  %s", p, want, after[p])
		}
	}
}

// TestV1SnapshotStillLoads recovers a v1 snapshot, which held each
// SLA's binding history, written by a drain of the broker before
// snapshots held state (driveLifecycle, then Flush). The history
// replays through the engine to the bytes that broker served.
func TestV1SnapshotStillLoads(t *testing.T) {
	dir := t.TempDir()
	snap, err := os.ReadFile(filepath.Join("testdata", "v1snapshot", store.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, store.SnapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v1snapshot", "bodies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := durableServer(st, 0)
	stats, err := srv.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SLAs != 2 || stats.Replayed != 0 {
		t.Errorf("recovered %d SLAs replaying %d records, want 2 and 0", stats.SLAs, stats.Replayed)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	got := stateBodies(t, ts.URL, []string{"sla-1", "sla-2"})
	for p, body := range want {
		if got[p] != body {
			t.Errorf("GET %s after loading the v1 snapshot:\n got: %s\nwant: %s", p, got[p], body)
		}
	}
}

// chainMetrics are the carriers of the restore and journal chains:
// + (cost), × (reliability) and min (preference), under each of which
// a retraction can leave σ other than offer ⊗ requirement.
var chainMetrics = []soa.Metric{soa.MetricCost, soa.MetricReliability, soa.MetricPreference}

// chainAttr is a fractional QoS attribute of the metric, drawn so
// that ⊗ and ÷ round: costs in tenths, percentages in tenths too.
func chainAttr(rng *rand.Rand, metric soa.Metric) soa.Attribute {
	a := soa.Attribute{Metric: metric, Resource: "units", MaxUnits: 6}
	if metric == soa.MetricCost {
		a.Base, a.PerUnit = float64(rng.Intn(40))/10, float64(rng.Intn(20))/10
	} else {
		a.Base, a.PerUnit = 60+float64(rng.Intn(390))/10, float64(rng.Intn(60))/10
	}
	return a
}

// chainDoc publishes attr as provider's offer for "svc".
func chainDoc(provider string, attr soa.Attribute) *soa.Document {
	attr.Name = "q"
	return &soa.Document{Service: "svc", Provider: provider, Region: "eu", Attributes: []soa.Attribute{attr}}
}

// entryState renders everything a client or a later renegotiation can
// see of an SLA entry, with σ and the blevel as raw bits.
func entryState(t *testing.T, srv *Server, id string) (string, *core.Constraint[float64]) {
	t.Helper()
	e, ok := srv.entry(id)
	if !ok {
		t.Fatalf("no entry %s", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sigma := e.session.store.Constraint()
	return fmt.Sprintf("blevel=%#x sla=%+v version=%d report=%+v prior=%d/%d",
		math.Float64bits(e.session.AgreedLevel()), *e.session.SLA(), e.version(),
		e.mon.Report(), e.priorObs, e.priorViol), sigma
}

// TestSnapshotRestoreBitExact drives a 50-step fractional
// renegotiation chain with a failover halfway, snapshots, restarts,
// and checks that the restored SLA equals the never-restarted one:
// every σ bit, blevel, resources, version and compliance, and the σ
// bits one more renegotiation gives on each side. σ is checked to
// differ from offer ⊗ requirement, so rebuilding it by telling those
// would fail here.
func TestSnapshotRestoreBitExact(t *testing.T) {
	for i, metric := range chainMetrics {
		t.Run(string(metric), func(t *testing.T) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			mem := store.NewMemory()
			srv := durableServer(mem, 0)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := NewClient(ts.URL, ts.Client())
			best, backup := chainAttr(rng, metric), chainAttr(rng, metric)
			if metric == soa.MetricCost {
				best.Base, backup.Base = 0.3, 9.7
			} else {
				best.Base, backup.Base = 99.3, 80.1
			}
			for p, attr := range map[string]soa.Attribute{"best": best, "backup": backup} {
				if err := client.Publish(ctx, chainDoc(p, attr)); err != nil {
					t.Fatal(err)
				}
			}
			sla, err := client.Negotiate(ctx, NegotiateRequest{
				Service: "svc", Client: "shop", Metric: metric, Requirement: chainAttr(rng, metric),
			})
			if err != nil {
				t.Fatal(err)
			}
			renegotiate := func(c *Client, req soa.Attribute) {
				t.Helper()
				if _, err := c.Renegotiate(ctx, RenegotiateRequest{ID: sla.ID, Requirement: req}); err != nil {
					t.Fatal(err)
				}
			}
			violating := 1e9
			if metric != soa.MetricCost {
				violating = 0
			}
			for step := 0; step < 50; step++ {
				if step == 25 {
					for k := 0; k < 3; k++ {
						if _, err := client.Observe(ctx, sla.ID, violating); err != nil {
							t.Fatal(err)
						}
					}
				}
				req := chainAttr(rng, metric)
				if step == 49 && metric != soa.MetricCost {
					// Above every offer level: under min, the cells a
					// retraction freed from the offer's cap now read
					// above the offer.
					req.Base, req.PerUnit = 99.9, 0
				}
				renegotiate(client, req)
			}
			want, sigma := entryState(t, srv, sla.ID)
			if !strings.Contains(want, "Providers:[backup]") {
				t.Fatalf("the chain did not fail over: %s", want)
			}
			e, _ := srv.entry(sla.ID)
			inst, err := newNegInstance(e.session.sr, e.req.Requirement, e.session.offerAttr)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := e.session.reqAttr.ToConstraint(inst.space, inst.resourceVars[e.session.reqAttr.Resource])
			if err != nil {
				t.Fatal(err)
			}
			retold := core.NewStore(inst.space)
			for _, c := range []*core.Constraint[float64]{inst.offerCon, cur, inst.spPCon, inst.spCCon} {
				retold.Tell(c)
			}
			if sameBits(retold.Constraint(), sigma) {
				t.Fatal("σ equals offer ⊗ requirement: the chain cannot tell state from a rebuild")
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}

			srv2 := durableServer(mem, 0)
			stats, err := srv2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Replayed != 0 {
				t.Errorf("replayed %d WAL records after a flush, want 0", stats.Replayed)
			}
			got, sigma2 := entryState(t, srv2, sla.ID)
			if got != want || !sameBits(sigma, sigma2) {
				t.Fatalf("restored SLA differs:\n got: %s\n      %s\nwant: %s\n      %s", got, sigma2, want, sigma)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			next := chainAttr(rng, metric)
			renegotiate(client, next)
			renegotiate(NewClient(ts2.URL, ts2.Client()), next)
			want, sigma = entryState(t, srv, sla.ID)
			got, sigma2 = entryState(t, srv2, sla.ID)
			if got != want || !sameBits(sigma, sigma2) {
				t.Fatalf("renegotiation after restore differs:\n got: %s\n      %s\nwant: %s\n      %s", got, sigma2, want, sigma)
			}
		})
	}
}

// TestSnapshotSizeFlat: a snapshot holds an SLA's state, not its
// history, so its size does not grow with renegotiations, and
// recovering it replays nothing. The requirement alternates, so after
// an even number of renegotiations only the version's digits differ.
func TestSnapshotSizeFlat(t *testing.T) {
	ctx := context.Background()
	mem := store.NewMemory()
	srv := durableServer(mem, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if err := client.Publish(ctx, costDoc("p1", "svc", 2, 0.3, "eu")); err != nil {
		t.Fatal(err)
	}
	reqs := []soa.Attribute{
		{Metric: soa.MetricCost, Base: 0.1, PerUnit: 0.7, Resource: "failures", MaxUnits: 10},
		{Metric: soa.MetricCost, Base: 1.3, PerUnit: 0.2, Resource: "failures", MaxUnits: 10},
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "svc", Client: "shop", Metric: soa.MetricCost, Requirement: reqs[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	var base int
	done := 0
	for _, n := range []int{0, 100, 1000, 4000} {
		for ; done < n; done++ {
			if _, err := client.Renegotiate(ctx, RenegotiateRequest{ID: sla.ID, Requirement: reqs[(done+1)%2]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		rec, err := mem.Recover()
		if err != nil {
			t.Fatal(err)
		}
		size := len(rec.Snapshot)
		if n == 0 {
			base = size
		} else if grew := size - base; grew != len(strconv.Itoa(n+1))-1 {
			t.Errorf("after %d renegotiations the snapshot grew %d B, want only the version's %d extra digits",
				n, grew, len(strconv.Itoa(n+1))-1)
		}

		srv2 := durableServer(mem, 0)
		start := time.Now()
		stats, err := srv2.Recover(ctx)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Replayed != 0 {
			t.Errorf("after %d renegotiations recovery replayed %d records, want 0", n, stats.Replayed)
		}
		if st := srv2.negotiator.cache.TierStats(cache.TierSearch); st.Hits+st.Misses != 0 {
			t.Errorf("after %d renegotiations recovery ran %d negotiations, want none", n, st.Hits+st.Misses)
		}
		if _, ok := srv2.journalByID(sla.ID); ok {
			t.Errorf("after %d renegotiations recovery journalled a replay", n)
		}
		t.Logf("%4d renegotiations: snapshot %d B, Recover %v", n, size, elapsed)
	}
}
