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
// for byte the cold journal.
func TestCachedNegotiationBitIdentical(t *testing.T) {
	req := cacheTestRequest()
	nCold := NewNegotiator(cacheTestRegistry(t))
	slaCold, sessCold, outCold, jCold := negotiateJournaled(t, nCold, req)

	c := cache.New(1024)
	nCached := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
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
// the cache.
func TestCachedPrecheckedNegotiationBitIdentical(t *testing.T) {
	req := cacheTestRequest()
	req.Lower = fptr(1) // cost semiring: 1 is better than any attainable total
	nCold := NewNegotiator(cacheTestRegistry(t))
	_, _, outCold, jCold := negotiateJournaled(t, nCold, req)

	c := cache.New(1024)
	nCached := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	_, _, _, jMiss := negotiateJournaled(t, nCached, req)
	_, _, outHit, jHit := negotiateJournaled(t, nCached, req)
	if jMiss != jCold || jHit != jCold {
		t.Errorf("prechecked journals differ:\ncold:\n%s\nmiss:\n%s\nhit:\n%s", jCold, jMiss, jHit)
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

// TestCachedRenegotiationBitIdentical: two sessions negotiated from
// the same template share a history key, so the second session's
// renegotiation replays the first's cached plan — and must match a
// cache-less session's renegotiation byte for byte.
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
	slaMiss, jMiss := renegotiateJournaled(t, sessA, newReq, nil, nil)
	before := c.TierStats(cache.TierSearch).Hits
	slaHit, jHit := renegotiateJournaled(t, sessB, newReq, nil, nil)
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("sibling session's renegotiation did not hit the plan cache")
	}

	if jMiss != jCold || jHit != jCold {
		t.Errorf("renegotiation journals differ:\ncold:\n%s\nmiss:\n%s\nhit:\n%s", jCold, jMiss, jHit)
	}
	for label, got := range map[string]*soa.SLA{"miss": slaMiss, "hit": slaHit} {
		if got == nil || got.AgreedLevel != slaCold.AgreedLevel ||
			!reflect.DeepEqual(got.Resources, slaCold.Resources) {
			t.Errorf("%s renegotiated SLA %+v differs from cold %+v", label, got, slaCold)
		}
	}
	if sessB.Version() != sessCold.Version() || sessB.AgreedLevel() != sessCold.AgreedLevel() {
		t.Errorf("replayed session (level %v, v%d) differs from cold (level %v, v%d)",
			sessB.AgreedLevel(), sessB.Version(), sessCold.AgreedLevel(), sessCold.Version())
	}

	// A further renegotiation on the replayed session must keep
	// working — its history key advanced with the replay.
	sla2, _ := renegotiateJournaled(t, sessB, soa.Attribute{
		Metric: soa.MetricCost, Base: 0, PerUnit: 1, Resource: "failures", MaxUnits: 10,
	}, nil, nil)
	if sla2 == nil {
		t.Fatal("follow-up renegotiation on replayed session failed")
	}
}

// TestCachedRenegotiationRejectionReplay: a rejected renegotiation is
// cached too; the retry replays the rejection without touching the
// store.
func TestCachedRenegotiationRejectionReplay(t *testing.T) {
	c := cache.New(1024)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(c))
	_, sess, _, _ := negotiateJournaled(t, n, cacheTestRequest())
	level := sess.AgreedLevel()

	tight := soa.Attribute{
		Metric: soa.MetricCost, Base: 100, PerUnit: 10, Resource: "failures", MaxUnits: 10,
	}
	sla1, j1 := renegotiateJournaled(t, sess, tight, fptr(1), nil)
	before := c.TierStats(cache.TierSearch).Hits
	sla2, j2 := renegotiateJournaled(t, sess, tight, fptr(1), nil)
	if sla1 != nil || sla2 != nil {
		t.Fatalf("tightening should be rejected, got %v then %v", sla1, sla2)
	}
	if c.TierStats(cache.TierSearch).Hits <= before {
		t.Fatal("retried rejection did not hit the plan cache")
	}
	if j1 != j2 {
		t.Errorf("rejection replay journal differs:\nfirst:\n%s\nretry:\n%s", j1, j2)
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
