package broker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
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

// TestCachedRenegotiationBitIdentical: sessions minted from the first,
// the admitting and a replayed negotiation of one request renegotiate
// exactly as a cold session — same SLA, journal bytes, level and
// version. Renegotiations themselves are never cached, so none of them
// touches the plan cache, and a follow-up renegotiation on the
// replayed session keeps working.
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
	before := c.TierStats(cache.TierSearch).Hits
	_, sessC, _, _ := negotiateJournaled(t, nCached, req)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("third negotiation did not replay a plan")
	}
	statsBefore := c.TierStats(cache.TierSearch)
	slaFirst, jFirst := renegotiateJournaled(t, sessA, newReq, nil, nil)
	slaMiss, jMiss := renegotiateJournaled(t, sessB, newReq, nil, nil)
	slaHit, jHit := renegotiateJournaled(t, sessC, newReq, nil, nil)
	if got := c.TierStats(cache.TierSearch); got != statsBefore {
		t.Errorf("renegotiations touched the plan cache: %+v, before %+v", got, statsBefore)
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

	sla2, _ := renegotiateJournaled(t, sessC, soa.Attribute{
		Metric: soa.MetricCost, Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
	}, nil, nil)
	if sla2 == nil {
		t.Fatal("follow-up renegotiation on replayed session failed")
	}
}

// TestCachedRenegotiationRejectionReplay: a rejected renegotiation on
// a session from a replayed plan, retried, is rejected every time with
// the cold session's journal bytes, leaves level and version where
// they were, and never touches the plan cache.
func TestCachedRenegotiationRejectionReplay(t *testing.T) {
	req := cacheTestRequest()
	_, cold, _, _ := negotiateJournaled(t, NewNegotiator(cacheTestRegistry(t)), req)

	c := cache.New(1024)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	negotiateJournaled(t, n, req)
	negotiateJournaled(t, n, req)
	before := c.TierStats(cache.TierSearch).Hits
	_, sess, _, _ := negotiateJournaled(t, n, req)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("third negotiation did not replay a plan")
	}
	level := sess.AgreedLevel()

	tight := soa.Attribute{
		Metric: soa.MetricCost, Base: 100, PerUnit: 10, Resource: "failures", MaxUnits: 10,
	}
	slaCold, jCold := renegotiateJournaled(t, cold, tight, fptr(1), nil)
	if slaCold != nil {
		t.Fatalf("cold tightening should be rejected, got %v", slaCold)
	}
	statsBefore := c.TierStats(cache.TierSearch)
	for i := 0; i < 3; i++ {
		sla, j := renegotiateJournaled(t, sess, tight, fptr(1), nil)
		if sla != nil {
			t.Fatalf("try %d: tightening should be rejected, got %v", i, sla)
		}
		if j != jCold {
			t.Errorf("try %d: rejection journal differs from cold:\ncold:\n%s\ngot:\n%s", i, jCold, j)
		}
	}
	if got := c.TierStats(cache.TierSearch); got != statsBefore {
		t.Errorf("rejected renegotiations touched the plan cache: %+v, before %+v", got, statsBefore)
	}
	if sess.AgreedLevel() != level || sess.Version() != 1 {
		t.Errorf("rejected renegotiation moved the session: level %v version %d", sess.AgreedLevel(), sess.Version())
	}
}

// storeBits returns the session store's σ table as exact float64 bit
// patterns, in the table's mixed-radix order.
func storeBits(s *Session) []uint64 {
	vals := s.store.Constraint().Values(nil)
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestRenegotiationChainReplayedMatchesCold: renegotiations are never
// cached, so a session minted from a replayed negotiation plan must
// renegotiate exactly as a session from a cache-less negotiator. Both
// run the same chain of 50 renegotiations: each round walks the table
// once, its requirement bases shifted by a quarter per round so that
// the chained ÷ and ⊗ meet fractional tables. After every step the
// two sessions agree on the SLA, every σ bit, σ⇓∅'s bits, the version
// and the journal's JSONL bytes.
func TestRenegotiationChainReplayedMatchesCold(t *testing.T) {
	steps := []struct {
		name          string
		base, perUnit float64
		lower, upper  *float64
		accept        bool
	}{
		{name: "flat, unbounded", base: 1, accept: true},
		{name: "linear, loose lower", base: 3, perUnit: 1, lower: fptr(20), accept: true},
		{name: "tight lower", base: 100, perUnit: 10, lower: fptr(1)},
		{name: "falling, unbounded", base: 9, perUnit: -1.5, accept: true},
		{name: "falling, lower missed", base: 9, perUnit: -1.5, lower: fptr(7)},
		{name: "falling, lower met", base: 9, perUnit: -1.5, lower: fptr(10), accept: true},
		{name: "too good for upper", base: 0.1, perUnit: 0.3, upper: fptr(5)},
		{name: "upper met", base: 4, upper: fptr(5), accept: true},
		{name: "inside interval", base: 2.2, perUnit: -1.1, lower: fptr(10), upper: fptr(1), accept: true},
		{name: "above interval", base: 50, lower: fptr(60), upper: fptr(55)},
	}
	const rounds = 5

	req := cacheTestRequest()
	_, cold, _, _ := negotiateJournaled(t, NewNegotiator(cacheTestRegistry(t)), req)
	c := cache.New(1024)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	negotiateJournaled(t, n, req)
	negotiateJournaled(t, n, req)
	before := c.TierStats(cache.TierSearch).Hits
	_, replayed, _, _ := negotiateJournaled(t, n, req)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("third negotiation did not replay a plan")
	}
	if cold == nil || replayed == nil {
		t.Fatal("negotiation found no agreement")
	}

	accepted := 0
	for round := 0; round < rounds; round++ {
		for _, st := range steps {
			label := fmt.Sprintf("round %d, %s", round, st.name)
			newReq := soa.Attribute{
				Name: "budget", Metric: soa.MetricCost,
				Base: st.base + float64(round)/4, PerUnit: st.perUnit,
				Resource: "failures", MaxUnits: 10,
			}
			slaCold, jCold := renegotiateJournaled(t, cold, newReq, st.lower, st.upper)
			slaReplayed, jReplayed := renegotiateJournaled(t, replayed, newReq, st.lower, st.upper)
			if got := slaCold != nil; got != st.accept {
				t.Fatalf("%s: accepted = %v, want %v", label, got, st.accept)
			}
			if st.accept {
				accepted++
			}
			if !reflect.DeepEqual(slaReplayed, slaCold) {
				t.Fatalf("%s: replayed SLA %+v, cold %+v", label, slaReplayed, slaCold)
			}
			if jReplayed != jCold {
				t.Fatalf("%s: journals differ:\ncold:\n%s\nreplayed:\n%s", label, jCold, jReplayed)
			}
			if !reflect.DeepEqual(storeBits(replayed), storeBits(cold)) {
				t.Fatalf("%s: σ bits differ", label)
			}
			if g, w := math.Float64bits(replayed.AgreedLevel()), math.Float64bits(cold.AgreedLevel()); g != w {
				t.Fatalf("%s: σ⇓∅ bits %#x, cold %#x", label, g, w)
			}
			if !reflect.DeepEqual(replayed.SLA().Resources, cold.SLA().Resources) {
				t.Fatalf("%s: resources %v, cold %v", label, replayed.SLA().Resources, cold.SLA().Resources)
			}
			if replayed.Version() != cold.Version() {
				t.Fatalf("%s: version %d, cold %d", label, replayed.Version(), cold.Version())
			}
		}
	}
	if want := 1 + accepted; cold.Version() != want {
		t.Errorf("chain ended at version %d, want %d", cold.Version(), want)
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
// 924 measured, coldNegotiation's 916 plus one per provider for its
// plan key, plus 5%.
const firstSightingAllocs = 971

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
