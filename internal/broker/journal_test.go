package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"softsoa/internal/obs/journal"
	"softsoa/internal/replay"
	"softsoa/internal/soa"
)

// serveForTest serves a pre-built Server (so tests can reach into it)
// and returns a client against it.
func serveForTest(t *testing.T, srv *Server) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client())
}

// TestJournalReplayExample2 is the acceptance scenario: a live broker
// negotiation and renegotiation shaped like the paper's Example 2
// (offer x+2, requirement x+3 agreed at blevel 5, relaxed to x for
// final store 2x+2 at blevel 2), fetched as a JSONL journal over HTTP
// and verified by deterministic replay.
func TestJournalReplayExample2(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()

	if err := client.Publish(ctx, &soa.Document{
		Service: "failmgmt", Provider: "p1", Region: "eu",
		Attributes: []soa.Attribute{{
			Name: "fee", Metric: soa.MetricCost,
			Base: 2, PerUnit: 1, Resource: "x", MaxUnits: 10,
		}},
	}); err != nil {
		t.Fatal(err)
	}

	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "failmgmt",
		Client:  "shop",
		Metric:  soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 3, PerUnit: 1, Resource: "x", MaxUnits: 10,
		},
		Lower: fptr(10),
		Upper: fptr(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sla.AgreedLevel != 5 {
		t.Fatalf("negotiated blevel = %g, want 5", sla.AgreedLevel)
	}

	relaxed, err := client.Renegotiate(ctx, RenegotiateRequest{
		ID: sla.ID,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 0, PerUnit: 1, Resource: "x", MaxUnits: 10,
		},
		Lower: fptr(4),
		Upper: fptr(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.AgreedLevel != 2 {
		t.Fatalf("renegotiated blevel = %g, want 2", relaxed.AgreedLevel)
	}

	j, err := client.Journal(ctx, sla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meta := j.Meta(); meta.ID != sla.ID || meta.Kind != "negotiation" {
		t.Errorf("journal meta = %+v, want id %s kind negotiation", meta, sla.ID)
	}

	segs := j.Segments()
	if len(segs) != 2 {
		t.Fatalf("journal has %d segments, want 2 (negotiate + renegotiate)", len(segs))
	}
	if segs[0].Label != "negotiate:p1" || segs[1].Label != "renegotiate:p1" {
		t.Errorf("segment labels = %q, %q", segs[0].Label, segs[1].Label)
	}
	if segs[0].Program == "" || segs[1].Program == "" {
		t.Fatalf("segments must be replayable; programs = %q / %q", segs[0].Program, segs[1].Program)
	}
	if segs[1].FinalBlevel != "2" {
		t.Errorf("renegotiation FinalBlevel = %q, want 2", segs[1].FinalBlevel)
	}

	// The recorded rule sequence must show the nonmonotonic pair.
	var rules []string
	for _, ev := range j.Events() {
		if ev.Kind == "transition" && ev.Seg == 1 {
			rules = append(rules, ev.Transition.Rule)
		}
	}
	if len(rules) != 2 || rules[0] != "R7 Retract" || rules[1] != "R1 Tell" {
		t.Errorf("renegotiation rules = %v, want [R7 Retract, R1 Tell]", rules)
	}

	rep, err := replay.Verify(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Segments {
		if !sr.Replayable {
			t.Errorf("segment %q not replayable", sr.Label)
		}
		for _, m := range sr.Mismatches {
			t.Errorf("segment %q: %s", sr.Label, m)
		}
	}

	// The JSONL dump round-trips byte for byte.
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := j2.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSONL dump does not round-trip byte for byte")
	}
}

// TestJournalNoAgreement: failed negotiations surface a neg-N journal
// whose doomed providers appear as non-replayable segments.
func TestJournalNoAgreement(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	ts, client := serveForTest(t, srv)
	_ = ts
	ctx := context.Background()

	if err := client.Publish(ctx, costDoc("pricey", "failmgmt", 50, 5, "eu")); err != nil {
		t.Fatal(err)
	}
	_, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(10), // even the best total (50) exceeds the bound
	})
	if err == nil {
		t.Fatal("want no-agreement error")
	}

	j, ok := srv.journalByID("neg-1")
	if !ok {
		t.Fatal("no journal retained for the failed negotiation")
	}
	segs := j.Segments()
	if len(segs) != 1 || segs[0].Program != "" {
		t.Fatalf("want one non-replayable (prechecked) segment, got %+v", segs)
	}
	if !strings.Contains(segs[0].Note, "prechecked") {
		t.Errorf("segment note = %q, want precheck explanation", segs[0].Note)
	}
}

// TestJournalRetention: the FIFO bound evicts the oldest journal.
func TestJournalRetention(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty, WithJournalRetention(2))
	_, client := serveForTest(t, srv)
	ctx := context.Background()

	if err := client.Publish(ctx, costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		sla, err := client.Negotiate(ctx, NegotiateRequest{
			Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
			Requirement: soa.Attribute{
				Name: "budget", Metric: soa.MetricCost,
				Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sla.ID)
	}
	if _, ok := srv.journalByID(ids[0]); ok {
		t.Errorf("journal %s should have been evicted", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := srv.journalByID(id); !ok {
			t.Errorf("journal %s missing", id)
		}
	}
}

// TestJournalParallelNegotiations stresses concurrent journaled
// negotiations and renegotiations; run with -race. Every journal must
// verify independently.
func TestJournalParallelNegotiations(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	_, client := serveForTest(t, srv)
	ctx := context.Background()

	if err := client.Publish(ctx, costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(ctx, costDoc("p2", "failmgmt", 4, 2, "us")); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sla, err := client.Negotiate(ctx, NegotiateRequest{
				Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
				Requirement: soa.Attribute{
					Name: "budget", Metric: soa.MetricCost,
					Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
				},
				Lower: fptr(20),
			})
			if err != nil {
				errs <- err
				return
			}
			if _, err := client.Renegotiate(ctx, RenegotiateRequest{
				ID: sla.ID,
				Requirement: soa.Attribute{
					Name: "budget", Metric: soa.MetricCost,
					Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
				},
				Lower: fptr(20),
			}); err != nil {
				errs <- err
				return
			}
			j, err := client.Journal(ctx, sla.ID)
			if err != nil {
				errs <- err
				return
			}
			rep, err := replay.Verify(j)
			if err != nil {
				errs <- err
				return
			}
			if !rep.OK() {
				for _, sr := range rep.Segments {
					for _, m := range sr.Mismatches {
						t.Errorf("journal %s segment %q: %s", sla.ID, sr.Label, m)
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestJournalRetentionVsLiveRenegotiation: an SLA can outlive its
// journal. When the FIFO bound has evicted sla-1's journal and the
// client renegotiates sla-1, the broker must start a fresh journal —
// never resurrect the evicted one with a partial segment list — and
// the fresh journal must still verify by replay.
func TestJournalRetentionVsLiveRenegotiation(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty, WithJournalRetention(2))
	_, client := serveForTest(t, srv)
	ctx := context.Background()

	if err := client.Publish(ctx, costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	req := NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(20),
	}
	var ids []string
	for i := 0; i < 3; i++ {
		sla, err := client.Negotiate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sla.ID)
	}
	if _, ok := srv.journalByID(ids[0]); ok {
		t.Fatalf("precondition: journal %s should have been evicted", ids[0])
	}

	// The SLA is still live; relaxing it must succeed and produce a
	// journal that starts from the renegotiation, not from a
	// partially-resurrected negotiation history.
	if _, err := client.Renegotiate(ctx, RenegotiateRequest{
		ID: ids[0],
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(20),
	}); err != nil {
		t.Fatal(err)
	}
	j, err := client.Journal(ctx, ids[0])
	if err != nil {
		t.Fatalf("journal after renegotiating an evicted id: %v", err)
	}
	if meta := j.Meta(); meta.Kind != "renegotiation" {
		t.Errorf("journal kind = %q, want renegotiation (a fresh journal)", meta.Kind)
	}
	segs := j.Segments()
	if len(segs) != 1 {
		t.Fatalf("fresh journal has %d segments, want 1 (the renegotiation only)", len(segs))
	}
	if segs[0].Label != "renegotiate:p1" {
		t.Errorf("segment label = %q, want renegotiate:p1", segs[0].Label)
	}
	rep, err := replay.Verify(j)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, sr := range rep.Segments {
			for _, m := range sr.Mismatches {
				t.Errorf("segment %q: %s", sr.Label, m)
			}
		}
	}

	// Re-storing under an evicted id consumes a retention slot again:
	// the FIFO moves on to evict the next-oldest journal.
	if _, ok := srv.journalByID(ids[1]); ok {
		t.Errorf("journal %s should have been evicted by the re-stored %s", ids[1], ids[0])
	}
	if _, ok := srv.journalByID(ids[2]); !ok {
		t.Errorf("journal %s missing", ids[2])
	}
}

// earlySegments returns the JSONL lines of segments [0, n): their
// segment lines and events, in dump order.
func earlySegments(t *testing.T, dump []byte, n int) string {
	t.Helper()
	var b strings.Builder
	for _, line := range bytes.Split(dump, []byte("\n")) {
		var probe struct {
			T string `json:"t"`
			I int    `json:"i"`
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Error(err)
			continue
		}
		switch probe.T {
		case "segment", "transition", "solver":
			if probe.I < n {
				b.Write(line)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestJournalCapturedUnderRenegotiation: a journal renders its
// segments when read, so a renegotiation segment must render from
// inputs captured when it was recorded — never from the live Session,
// which later renegotiations mutate. Readers fetch the SLA's journal
// while renegotiations append to it; the first two segments must stay
// byte-identical throughout. Run with -race.
func TestJournalCapturedUnderRenegotiation(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	ts, client := serveForTest(t, srv)
	ctx := context.Background()
	if err := client.Publish(ctx, costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	budget := func(base, per float64) soa.Attribute {
		return soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: base, PerUnit: per, Resource: "failures", MaxUnits: 10,
		}
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: budget(3, 1), Lower: fptr(40),
	})
	if err != nil {
		t.Fatal(err)
	}
	renegotiate := func(i int) {
		if _, err := client.Renegotiate(ctx, RenegotiateRequest{
			ID: sla.ID, Requirement: budget(float64(i%5), float64(1+i%3)), Lower: fptr(40),
		}); err != nil {
			t.Error(err)
		}
	}
	renegotiate(0)
	want := earlySegments(t, fetchJournal(t, ts, sla.ID, "?format=jsonl"), 2)
	if !strings.Contains(want, `"label":"renegotiate:p1","program":"semiring weighted.`) {
		t.Fatalf("second segment is not a replayable renegotiation:\n%s", want)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				dump, err := getJournal(ts, sla.ID, "?format=jsonl")
				if err != nil {
					t.Error(err)
					return
				}
				if got := earlySegments(t, dump, 2); got != want {
					t.Errorf("earlier segments changed while renegotiating:\n got: %s\nwant: %s", got, want)
					return
				}
			}
		}()
	}
	for i := 1; i <= 12; i++ {
		renegotiate(i)
	}
	close(done)
	wg.Wait()

	dump := fetchJournal(t, ts, sla.ID, "?format=jsonl")
	if got := earlySegments(t, dump, 2); got != want {
		t.Errorf("earlier segments changed after renegotiating:\n got: %s\nwant: %s", got, want)
	}
	if got := strings.Count(string(dump), `"label":"renegotiate:p1"`); got != 13 {
		t.Errorf("journal holds %d renegotiation segments, want 13", got)
	}
}

// coldNegotiation is one cold negotiation (no solve cache) across
// eight providers with a journal attached, the way the broker records
// every negotiation: two providers are prechecked doomed, six apply
// the agents. Nothing reads the journal, so its allocations are the
// recorder's cost on the request path.
func coldNegotiation(tb testing.TB) func() {
	reg := soa.NewRegistry()
	for i := 0; i < 8; i++ {
		if err := reg.Publish(costDoc(fmt.Sprintf("p%d", i), "failmgmt", float64(2+3*i), float64(1+i%3), "eu")); err != nil {
			tb.Fatal(err)
		}
	}
	n := NewNegotiator(reg)
	req := Request{
		Service: "failmgmt", Client: "bench", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(22),
	}
	return func() {
		j := journal.New(journal.DefaultCapacity, journal.Meta{Kind: "negotiation"})
		sla, _, err := n.Negotiate(journal.ContextWith(context.Background(), j), req)
		if err != nil || sla == nil {
			tb.Fatalf("negotiation failed: %v", err)
		}
	}
}

// BenchmarkColdNegotiationJournaled measures coldNegotiation; with
// -benchmem the figures are the request path's cost.
func BenchmarkColdNegotiationJournaled(b *testing.B) {
	negotiate := coldNegotiation(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		negotiate()
	}
}

// coldNegotiationAllocs bounds coldNegotiation's allocations: 916
// measured with the agents' effects applied to the store directly and
// the runs deferred to the journal's first read (1 340 when every
// provider ran the machine), plus 5%.
const coldNegotiationAllocs = 962

// TestColdNegotiationAllocs keeps the cold journaled negotiation at
// its measured allocation count. The race detector allocates on its
// own, so the test skips under -race.
func TestColdNegotiationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(20, coldNegotiation(t)); n > coldNegotiationAllocs {
		t.Errorf("cold journaled negotiation allocates %.0f times, ceiling %d", n, coldNegotiationAllocs)
	}
}

// retainedJournalBytes bounds what TestNegotiationJournalRetainedBytes
// measures: 7 293 B with deferred runs (41 402 B when every run kept
// its machine's transitions, spaces and σ), plus 10%.
const retainedJournalBytes = 8022

// coldCatalogue is negotiate-cold's catalogue shape: eight cost
// providers over one units resource, their fees falling per unit.
func coldCatalogue(tb testing.TB) *soa.Registry {
	reg := soa.NewRegistry()
	for i := 0; i < 8; i++ {
		doc := &soa.Document{
			Service: "cold", Provider: fmt.Sprintf("cold-p%d", i+1), Region: "eu",
			Attributes: []soa.Attribute{{
				Name: "fee", Metric: soa.MetricCost, Base: 1 + 0.5*float64(i),
				PerUnit: -0.25 * float64(1+i%4), Resource: "units", MaxUnits: 8 + 2*i,
			}},
		}
		if err := reg.Publish(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// coldRequests draws n distinct negotiate-cold requirements, each with
// a lower bound every provider meets.
func coldRequests(n int) []Request {
	rng := rand.New(rand.NewSource(150))
	quarter := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) / 4 }
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Service: "cold", Client: "buyer", Metric: soa.MetricCost,
			Requirement: soa.Attribute{
				Name: "budget", Metric: soa.MetricCost,
				Base: quarter(0, 40), PerUnit: quarter(1, 100), Resource: "units", MaxUnits: 4 + rng.Intn(21),
			},
			Lower: fptr(10000 + quarter(0, 40000)),
		}
	}
	return out
}

// TestNegotiationJournalRetainedBytes bounds the heap a retained cold
// negotiation journal keeps once nothing else refers to the
// negotiation: 256 journals, the broker's retention bound, over
// negotiate-cold's catalogue shape. A run keeps its program inputs,
// outcome and pointer-free event slots; the machine's transitions and
// σ are derived only when the journal is read. The race detector
// allocates on its own, so the test skips under -race.
func TestNegotiationJournalRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const journals = 256
	n := NewNegotiator(coldCatalogue(t))
	reqs := coldRequests(journals)
	kept := make([]*journal.Journal, journals)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, req := range reqs {
		kept[i] = journal.New(journal.DefaultCapacity, journal.Meta{Kind: "negotiation"})
		sla, _, err := n.Negotiate(journal.ContextWith(context.Background(), kept[i]), req)
		if err != nil || sla == nil {
			t.Fatalf("negotiation %d: sla %v, err %v", i, sla, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / journals; per > retainedJournalBytes {
		t.Errorf("a retained negotiation journal holds %.0f B of heap, ceiling %d", per, retainedJournalBytes)
	}
}

// BenchmarkRenegotiationJournalSink measures an SLA's life under a
// journal sink: one negotiation, then 32 renegotiations, each followed
// by a full JSONL dump of the growing journal, the way brokerd
// -journal-dir rewrites <id>.jsonl on the request goroutine. A segment
// already dumped must not be rendered again, so the cost per dump
// stays close to encoding the journal.
func BenchmarkRenegotiationJournalSink(b *testing.B) {
	reg := soa.NewRegistry()
	if err := reg.Publish(costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		b.Fatal(err)
	}
	n := NewNegotiator(reg)
	budget := func(base, per float64) soa.Attribute {
		return soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: base, PerUnit: per, Resource: "failures", MaxUnits: 10,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := journal.New(journal.DefaultCapacity, journal.Meta{Kind: "negotiation"})
		ctx := journal.ContextWith(context.Background(), j)
		_, sess, _, err := n.NegotiateSession(ctx, Request{
			Service: "failmgmt", Client: "bench", Metric: soa.MetricCost,
			Requirement: budget(3, 1), Lower: fptr(1000),
		})
		if err != nil || sess == nil {
			b.Fatalf("negotiation failed: %v", err)
		}
		for r := 1; r <= 32; r++ {
			sla, err := sess.Renegotiate(ctx, budget(float64(r%13), float64(1+r%3)), fptr(1000), nil)
			if err != nil || sla == nil {
				b.Fatalf("renegotiation %d failed: %v", r, err)
			}
			if err := j.WriteJSONL(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestCompositionJournalOneEventPerStage: over HTTP, twenty cost and
// reliability compositions of ten stages over twelve providers in
// three regions drop no journal events. Each composition journal
// holds one stage event per pipeline stage, in order, and the last
// one carries the composed level of its segment.
func TestCompositionJournalOneEventPerStage(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	ts, client := serveForTest(t, srv)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	const stages, providers = 10, 12
	var names []string
	for s := 0; s < stages; s++ {
		names = append(names, fmt.Sprintf("st%d", s))
		for p := 0; p < providers; p++ {
			if err := client.Publish(ctx, &soa.Document{
				Service: names[s], Provider: fmt.Sprintf("st%d-p%d", s, p),
				Region: []string{"eu", "us", "ap"}[rng.Intn(3)],
				Attributes: []soa.Attribute{
					{Name: "fee", Metric: soa.MetricCost, Base: float64(4+rng.Intn(200)) / 4,
						PerUnit: float64(rng.Intn(5)) / 4, Resource: "units", MaxUnits: 3},
					{Name: "uptime", Metric: soa.MetricReliability, Base: float64(9000+rng.Intn(1000)) / 100,
						PerUnit: float64(rng.Intn(6)) / 100, Resource: "units", MaxUnits: 3},
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		metric := []soa.Metric{soa.MetricCost, soa.MetricReliability}[i%2]
		perm := rng.Perm(stages)
		req := ComposeRequest{Client: "shop", Metric: metric}
		for _, s := range perm {
			req.Stages = append(req.Stages, names[s])
		}
		if _, err := client.Compose(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	srv.mu.Lock()
	ids := append([]string(nil), srv.journalIDs...)
	srv.mu.Unlock()
	if len(ids) != 20 {
		t.Fatalf("retained %d journals, want 20", len(ids))
	}
	for _, id := range ids {
		j, err := client.Journal(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Dropped() != 0 {
			t.Errorf("%s dropped %d events", id, j.Dropped())
		}
		evs := j.Events()
		if len(evs) != stages {
			t.Fatalf("%s holds %d events, want one per stage (%d)", id, len(evs), stages)
		}
		for k, ev := range evs {
			if ev.Search == nil || ev.Search.Kind != "stage" || ev.Search.Depth != k+1 {
				t.Fatalf("%s event %d = %+v, want stage event at depth %d", id, k, ev, k+1)
			}
		}
		if got, want := evs[stages-1].Search.Value, j.Segments()[0].FinalBlevel; got != want {
			t.Errorf("%s last stage level %s, segment final_blevel %s", id, got, want)
		}
	}
	_, body := get(t, ts, "/v1/metrics")
	if !strings.Contains(body, "\njournal_events_dropped_total 0\n") {
		t.Errorf("journal_events_dropped_total is not 0:\n%s", body)
	}
}

// TestRenegotiationChainJournalsReplay: a renegotiation segment's setup
// rebuilds σ as offer ⊗ requirement, which it stops being once a
// retraction rounds. Over fractional chains under +, × and min, every
// segment must then either replay exactly or be withdrawn with a note
// saying why, and a first renegotiation (σ is still the product)
// must always replay.
func TestRenegotiationChainJournalsReplay(t *testing.T) {
	withdrawn := 0
	for _, metric := range chainMetrics {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			reg := soa.NewRegistry()
			if err := reg.Publish(chainDoc("p1", chainAttr(rng, metric))); err != nil {
				t.Fatal(err)
			}
			j := journal.New(0, journal.Meta{})
			ctx := journal.ContextWith(context.Background(), j)
			_, sess, _, err := NewNegotiator(reg).NegotiateSession(ctx, Request{
				Service: "svc", Client: "shop", Metric: metric, Requirement: chainAttr(rng, metric),
			})
			if err != nil || sess == nil {
				t.Fatalf("%s seed %d: no agreement (%v)", metric, seed, err)
			}
			for k := 0; k < 4; k++ {
				if _, err := sess.Renegotiate(ctx, chainAttr(rng, metric), nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := replay.Verify(j)
			if err != nil {
				t.Fatal(err)
			}
			segs := j.Segments()
			for i, res := range rep.Segments {
				switch {
				case !res.OK():
					t.Errorf("%s seed %d segment %d does not replay: %v", metric, seed, i, res.Mismatches)
				case res.Replayable:
				case i == 1:
					t.Errorf("%s seed %d: the first renegotiation was withdrawn: %q", metric, seed, segs[i].Note)
				case !strings.Contains(segs[i].Note, "program withdrawn: its setup does not rebuild the session store"):
					t.Errorf("%s seed %d segment %d is not replayable and says nothing why: %q", metric, seed, i, segs[i].Note)
				default:
					withdrawn++
				}
			}
		}
	}
	if withdrawn == 0 {
		t.Error("no program was withdrawn: the chains never rounded a retraction")
	}
	t.Logf("%d renegotiation programs withdrawn", withdrawn)
}
