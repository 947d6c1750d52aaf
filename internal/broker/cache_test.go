package broker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"softsoa/internal/cache"
	"softsoa/internal/obs/journal"
	"softsoa/internal/soa"
)

// journalBytes renders a journal's full JSONL stream for byte-level
// comparison; cached and cold negotiations must be indistinguishable
// here, or replay determinism is broken.
func journalBytes(t *testing.T, j *journal.Journal) string {
	t.Helper()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func cacheTestRequest() Request {
	return Request{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(20),
	}
}

func cacheTestRegistry(t *testing.T) *soa.Registry {
	t.Helper()
	reg := soa.NewRegistry()
	for _, d := range []*soa.Document{
		costDoc("p1", "failmgmt", 2, 1, "eu"),
		costDoc("p2", "failmgmt", 4, 2, "us"),
	} {
		if err := reg.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// negotiateJournaled runs one journaled negotiation and returns the
// SLA, outcome, session and the journal's bytes.
func negotiateJournaled(t *testing.T, n *Negotiator, req Request) (*soa.SLA, *Session, *Outcome, string) {
	t.Helper()
	j := journal.New(0, journal.Meta{Kind: "negotiation"})
	ctx := journal.ContextWith(context.Background(), j)
	sla, sess, out, err := n.NegotiateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return sla, sess, out, journalBytes(t, j)
}

// TestCachedNegotiationBitIdentical: a negotiation served from the
// plan cache must equal the cold run in every observable — SLA,
// per-provider outcomes, session level — and its journal must be byte
// for byte the cold journal. Plans are admitted on second sight, so
// the cache is primed by two runs: the first stores nothing, the
// second (the "miss") stores the plan.
func TestCachedNegotiationBitIdentical(t *testing.T) {
	req := cacheTestRequest()
	nCold := NewNegotiator(cacheTestRegistry(t))
	slaCold, sessCold, outCold, jCold := negotiateJournaled(t, nCold, req)

	c := cache.New(1024)
	nCached := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	negotiateJournaled(t, nCached, req)
	slaMiss, _, outMiss, jMiss := negotiateJournaled(t, nCached, req)
	before := c.TierStats(cache.TierSearch).Hits
	slaHit, sessHit, outHit, jHit := negotiateJournaled(t, nCached, req)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("repeat negotiation did not hit the plan cache")
	}

	if jMiss != jCold {
		t.Errorf("miss journal differs from cold:\ncold:\n%s\nmiss:\n%s", jCold, jMiss)
	}
	if jHit != jCold {
		t.Errorf("hit journal differs from cold:\ncold:\n%s\nhit:\n%s", jCold, jHit)
	}
	for label, got := range map[string]*soa.SLA{"miss": slaMiss, "hit": slaHit} {
		if got.AgreedLevel != slaCold.AgreedLevel || got.Providers[0] != slaCold.Providers[0] ||
			!reflect.DeepEqual(got.Resources, slaCold.Resources) {
			t.Errorf("%s SLA %+v differs from cold %+v", label, got, slaCold)
		}
	}
	for label, got := range map[string]*Outcome{"miss": outMiss, "hit": outHit} {
		if !reflect.DeepEqual(got, outCold) {
			t.Errorf("%s outcome %+v differs from cold %+v", label, got, outCold)
		}
	}
	if sessHit.AgreedLevel() != sessCold.AgreedLevel() || sessHit.Version() != sessCold.Version() {
		t.Errorf("replayed session (level %v, v%d) differs from cold (level %v, v%d)",
			sessHit.AgreedLevel(), sessHit.Version(), sessCold.AgreedLevel(), sessCold.Version())
	}
}

// TestCachedPrecheckedNegotiationBitIdentical covers the doomed
// precheck path: an unreachable lower bound is prechecked cold and
// must replay identically (note, search record, stuck status) from
// the cache once the plan has been admitted.
func TestCachedPrecheckedNegotiationBitIdentical(t *testing.T) {
	req := cacheTestRequest()
	req.Lower = fptr(1) // cost semiring: 1 is better than any attainable total
	nCold := NewNegotiator(cacheTestRegistry(t))
	_, _, outCold, jCold := negotiateJournaled(t, nCold, req)

	c := cache.New(1024)
	nCached := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	_, _, _, jFirst := negotiateJournaled(t, nCached, req)
	_, _, _, jMiss := negotiateJournaled(t, nCached, req)
	before := c.TierStats(cache.TierSearch).Hits
	_, _, outHit, jHit := negotiateJournaled(t, nCached, req)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("third prechecked negotiation did not hit the plan cache")
	}
	if jFirst != jCold || jMiss != jCold || jHit != jCold {
		t.Errorf("prechecked journals differ:\ncold:\n%s\nfirst:\n%s\nmiss:\n%s\nhit:\n%s", jCold, jFirst, jMiss, jHit)
	}
	if !reflect.DeepEqual(outHit, outCold) {
		t.Errorf("prechecked hit outcome %+v differs from cold %+v", outHit, outCold)
	}
	for _, po := range outHit.PerProvider {
		if !po.Prechecked {
			t.Errorf("provider %s not prechecked on replay", po.Provider)
		}
	}
}

// renegotiateJournaled renegotiates and returns the new SLA plus the
// journal bytes of just the renegotiation.
func renegotiateJournaled(t *testing.T, s *Session, newReq soa.Attribute, lower, upper *float64) (*soa.SLA, string) {
	t.Helper()
	j := journal.New(0, journal.Meta{Kind: "renegotiation"})
	ctx := journal.ContextWith(context.Background(), j)
	sla, err := s.Renegotiate(ctx, newReq, lower, upper)
	if err != nil {
		t.Fatal(err)
	}
	return sla, journalBytes(t, j)
}

// TestCachedRenegotiationBitIdentical: sessions negotiated from the
// same template share a history key, so once a sibling's
// renegotiation has been admitted and stored, the next session's
// renegotiation replays it — and must match a cache-less session's
// renegotiation byte for byte. Admission on second sight takes three
// sessions: the first renegotiation stores nothing, the second (the
// "miss") stores the plan, the third hits.
func TestCachedRenegotiationBitIdentical(t *testing.T) {
	req := cacheTestRequest()
	newReq := soa.Attribute{
		Name: "budget", Metric: soa.MetricCost,
		Base: 1, PerUnit: 0, Resource: "failures", MaxUnits: 10,
	}

	nCold := NewNegotiator(cacheTestRegistry(t))
	_, sessCold, _, _ := negotiateJournaled(t, nCold, req)
	slaCold, jCold := renegotiateJournaled(t, sessCold, newReq, nil, nil)
	if slaCold == nil {
		t.Fatal("cold renegotiation should succeed")
	}

	c := cache.New(1024)
	nCached := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	_, sessA, _, _ := negotiateJournaled(t, nCached, req)
	_, sessB, _, _ := negotiateJournaled(t, nCached, req)
	_, sessC, _, _ := negotiateJournaled(t, nCached, req)
	slaFirst, jFirst := renegotiateJournaled(t, sessA, newReq, nil, nil)
	slaMiss, jMiss := renegotiateJournaled(t, sessB, newReq, nil, nil)
	before := c.TierStats(cache.TierSearch).Hits
	slaHit, jHit := renegotiateJournaled(t, sessC, newReq, nil, nil)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("sibling session's renegotiation did not hit the plan cache")
	}

	if jFirst != jCold || jMiss != jCold || jHit != jCold {
		t.Errorf("renegotiation journals differ:\ncold:\n%s\nfirst:\n%s\nmiss:\n%s\nhit:\n%s", jCold, jFirst, jMiss, jHit)
	}
	for label, got := range map[string]*soa.SLA{"first": slaFirst, "miss": slaMiss, "hit": slaHit} {
		if got == nil || got.AgreedLevel != slaCold.AgreedLevel ||
			!reflect.DeepEqual(got.Resources, slaCold.Resources) {
			t.Errorf("%s renegotiated SLA %+v differs from cold %+v", label, got, slaCold)
		}
	}
	if sessC.Version() != sessCold.Version() || sessC.AgreedLevel() != sessCold.AgreedLevel() {
		t.Errorf("replayed session (level %v, v%d) differs from cold (level %v, v%d)",
			sessC.AgreedLevel(), sessC.Version(), sessCold.AgreedLevel(), sessCold.Version())
	}

	// A further renegotiation on the replayed session must keep
	// working — its history key advanced with the replay.
	sla2, _ := renegotiateJournaled(t, sessC, soa.Attribute{
		Metric: soa.MetricCost, Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
	}, nil, nil)
	if sla2 == nil {
		t.Fatal("follow-up renegotiation on replayed session failed")
	}
}

// TestCachedRenegotiationRejectionReplay: a rejected renegotiation is
// cached too, on its second sighting; the next retry replays the
// rejection without touching the store.
func TestCachedRenegotiationRejectionReplay(t *testing.T) {
	c := cache.New(1024)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	_, sess, _, _ := negotiateJournaled(t, n, cacheTestRequest())
	level := sess.AgreedLevel()

	tight := soa.Attribute{
		Metric: soa.MetricCost, Base: 100, PerUnit: 10, Resource: "failures", MaxUnits: 10,
	}
	sla0, j0 := renegotiateJournaled(t, sess, tight, fptr(1), nil)
	sla1, j1 := renegotiateJournaled(t, sess, tight, fptr(1), nil)
	before := c.TierStats(cache.TierSearch).Hits
	sla2, j2 := renegotiateJournaled(t, sess, tight, fptr(1), nil)
	if sla0 != nil || sla1 != nil || sla2 != nil {
		t.Fatalf("tightening should be rejected, got %v, %v then %v", sla0, sla1, sla2)
	}
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("retried rejection did not hit the plan cache")
	}
	if j0 != j1 || j1 != j2 {
		t.Errorf("rejection replay journal differs:\nfirst:\n%s\nsecond:\n%s\nretry:\n%s", j0, j1, j2)
	}
	if sess.AgreedLevel() != level || sess.Version() != 1 {
		t.Errorf("rejected renegotiation moved the session: level %v version %d", sess.AgreedLevel(), sess.Version())
	}
}

// TestNegotiationCacheRace hammers one negotiator (and its cache)
// from concurrent journaled negotiations and renegotiations over a
// few request templates; run with -race. Every agreement must match
// its cold reference.
func TestNegotiationCacheRace(t *testing.T) {
	reg := cacheTestRegistry(t)
	templates := []Request{cacheTestRequest()}
	{
		r := cacheTestRequest()
		r.Requirement.Base, r.Requirement.PerUnit = 1, 2
		templates = append(templates, r)
		r2 := cacheTestRequest()
		r2.Lower = nil
		templates = append(templates, r2)
	}
	cold := make([]float64, len(templates))
	nCold := NewNegotiator(reg)
	for i, req := range templates {
		sla, _, _, err := nCold.NegotiateSession(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if sla == nil {
			t.Fatalf("template %d found no agreement", i)
		}
		cold[i] = sla.AgreedLevel
	}

	n := NewNegotiator(reg, WithNegotiatorSolveCache(cache.New(64)))
	newReq := soa.Attribute{
		Name: "budget", Metric: soa.MetricCost,
		Base: 1, PerUnit: 0, Resource: "failures", MaxUnits: 10,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := templates[(g+i)%len(templates)]
				j := journal.New(0, journal.Meta{Kind: "negotiation"})
				ctx := journal.ContextWith(context.Background(), j)
				sla, sess, _, err := n.NegotiateSession(ctx, req)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if sla == nil || sla.AgreedLevel != cold[(g+i)%len(templates)] {
					t.Errorf("goroutine %d iter %d: cached agreement diverged", g, i)
					return
				}
				if i%3 == 0 {
					if _, err := sess.Renegotiate(ctx, newReq, nil, nil); err != nil {
						t.Errorf("goroutine %d iter %d renegotiate: %v", g, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerCacheMetrics drives the full HTTP surface: repeated
// negotiations against a default server (cache on) must surface
// cache_hits_total > 0 on /v1/metrics, alongside the other cache
// families.
func TestServerCacheMetrics(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	_, client := serveForTest(t, srv)
	ctx := context.Background()
	if err := client.Publish(ctx, costDoc("p1", "failmgmt", 2, 1, "eu")); err != nil {
		t.Fatal(err)
	}
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
		if sla == nil {
			t.Fatal("no agreement")
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"cache_hits_total", "cache_misses_total", "cache_evictions_total",
		"cache_entries",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics missing family %s", family)
		}
	}
	var hits float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "cache_hits_total{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				hits += v
			}
		}
	}
	if hits <= 0 {
		t.Errorf("cache_hits_total = %v after repeated negotiations, want > 0", hits)
	}
}

// TestDistinctRequestsLeaveCacheEmpty: under second-sight admission,
// requests that never repeat store nothing. A thousand distinct
// negotiations, each followed by a distinct renegotiation, leave a
// default-sized cache empty.
func TestDistinctRequestsLeaveCacheEmpty(t *testing.T) {
	c := cache.New(defaultSolveCacheSize)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		req := cacheTestRequest()
		req.Lower = nil
		req.Requirement.Base = float64(i) / 8
		sla, sess, _, err := n.NegotiateSession(ctx, req)
		if err != nil || sla == nil {
			t.Fatalf("negotiation %d: sla %v, err %v", i, sla, err)
		}
		relaxed := req.Requirement
		relaxed.PerUnit = 0
		if sla, err := sess.Renegotiate(ctx, relaxed, nil, nil); err != nil || sla == nil {
			t.Fatalf("renegotiation %d: sla %v, err %v", i, sla, err)
		}
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after distinct requests, want 0", got)
	}
	if st := c.TierStats(cache.TierSearch); st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("search tier %+v after distinct requests, want no hits or evictions", st)
	}
}

// TestThirdSightingReplays: the first sighting of a request stores
// nothing, the second runs cold and stores the plan, the third
// replays it. Every one of the three journals is byte for byte the
// journal of a cache-less negotiator.
func TestThirdSightingReplays(t *testing.T) {
	req := cacheTestRequest()
	_, _, _, jCold := negotiateJournaled(t, NewNegotiator(cacheTestRegistry(t)), req)

	c := cache.New(defaultSolveCacheSize)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	providers := len(cacheTestRegistry(t).Discover(req.Service))
	for sighting, want := range []struct{ entries, hits int }{
		{0, 0},                 // first: seen, not stored
		{providers, 0},         // second: one plan per provider
		{providers, providers}, // third: every provider replays
	} {
		_, _, _, j := negotiateJournaled(t, n, req)
		if j != jCold {
			t.Errorf("sighting %d: journal differs from cold:\ncold:\n%s\ngot:\n%s", sighting+1, jCold, j)
		}
		if got := c.Len(); got != want.entries {
			t.Errorf("sighting %d: %d cache entries, want %d", sighting+1, got, want.entries)
		}
		if got := c.TierStats(cache.TierSearch).Hits; got != int64(want.hits) {
			t.Errorf("sighting %d: %d hits, want %d", sighting+1, got, want.hits)
		}
	}
}

// firstSightingNegotiation is coldNegotiation on a negotiator with a
// default-sized solve cache, where every call is the first sighting of
// its plan keys: each call's requirement carries a fresh name, which
// keys the plan but changes nothing else about the run.
func firstSightingNegotiation(tb testing.TB) func() {
	reg := soa.NewRegistry()
	for i := 0; i < 8; i++ {
		if err := reg.Publish(costDoc(fmt.Sprintf("p%d", i), "failmgmt", float64(2+3*i), float64(1+i%3), "eu")); err != nil {
			tb.Fatal(err)
		}
	}
	n := NewNegotiator(reg, WithNegotiatorSolveCache(cache.New(defaultSolveCacheSize)))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{
			Service: "failmgmt", Client: "bench", Metric: soa.MetricCost,
			Requirement: soa.Attribute{
				Name: fmt.Sprintf("budget-%d", i), Metric: soa.MetricCost,
				Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
			},
			Lower: fptr(22),
		}
	}
	next := 0
	return func() {
		if next == len(reqs) {
			tb.Fatal("firstSightingNegotiation ran out of distinct requests")
		}
		req := reqs[next]
		next++
		j := journal.New(journal.DefaultCapacity, journal.Meta{Kind: "negotiation"})
		sla, _, err := n.Negotiate(journal.ContextWith(context.Background(), j), req)
		if err != nil || sla == nil {
			tb.Fatalf("negotiation failed: %v", err)
		}
	}
}

// firstSightingAllocs bounds firstSightingNegotiation's allocations:
// 1 348 measured, coldNegotiation's 1 340 plus one per provider for
// its plan key, plus 5%.
const firstSightingAllocs = 1415

// TestFirstSightingAllocs: a first sighting costs what a cold
// negotiation costs plus its key hashes — no transition capture, no
// program, no plan.
func TestFirstSightingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(20, firstSightingNegotiation(t)); n > firstSightingAllocs {
		t.Errorf("first-sighting negotiation allocates %.0f times, ceiling %d", n, firstSightingAllocs)
	}
}
