package main

// The -cache group measures the negotiator's content-addressed solve
// cache end to end: full negotiation / renegotiation plan replay
// through the broker. Every hot row solves the identical input as its
// cold partner — equality is asserted before timing — and records its
// speedup against the cold row.
// Absolute ratios are machine-dependent: treat a committed report as
// one machine's snapshot, not a portable constant.

import (
	"context"
	"log"
	"testing"

	"softsoa/internal/broker"
	"softsoa/internal/cache"
	"softsoa/internal/soa"
)

// cacheBenches appends the cache group's entries to the report.
func cacheBenches(rep *Report, bench func(string, func(*testing.B)) Entry) {
	last := func() *Entry { return &rep.Entries[len(rep.Entries)-1] }

	// Negotiation through the broker: the cold negotiator has no
	// cache and runs the full pipeline (instance build, precheck
	// propagation, transition machine) per request; the hot one
	// replays the memoised plan. Plans are admitted on the second
	// sighting of their key, so the hot negotiator is primed twice.
	reg := benchRegistry()
	req := benchRequest()
	ctx := context.Background()
	hc := cache.New(256)
	nCold := broker.NewNegotiator(reg)
	nHot := broker.NewNegotiator(reg, broker.WithNegotiatorSolveCache(hc))
	slaCold := mustNegotiate(ctx, nCold, req)
	mustNegotiate(ctx, nHot, req) // prime: first sighting, stores nothing
	mustNegotiate(ctx, nHot, req) // prime: second sighting, stores the plan
	slaHot := mustNegotiate(ctx, nHot, req)
	if slaCold.AgreedLevel != slaHot.AgreedLevel || slaCold.Providers[0] != slaHot.Providers[0] {
		log.Fatalf("softsoa-bench: replayed negotiation diverged (level %v vs %v)",
			slaHot.AgreedLevel, slaCold.AgreedLevel)
	}
	cold := bench("cache/negotiate/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustNegotiate(ctx, nCold, req)
		}
	})
	h0, m0 := tierTotals(hc)
	bench("cache/negotiate/hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustNegotiate(ctx, nHot, req)
		}
	})
	last().Speedup = round3(cold.NsPerOp / last().NsPerOp)
	last().HitRate = hitRate(hc, h0, m0)

	// Perturbed renegotiation, end to end: mint a session, then
	// renegotiate to a tightened requirement. Hot iterations replay
	// both the negotiation plan and the history-keyed renegotiation
	// memo (the session's history key is content-derived, so every
	// session from the same template shares the plans).
	newReq := req.Requirement
	newReq.Base = 4
	renegotiated := func(n *broker.Negotiator) *soa.SLA {
		_, sess, _, err := n.NegotiateSession(ctx, req)
		if err != nil || sess == nil {
			log.Fatalf("softsoa-bench: bench negotiation failed: %v", err)
		}
		sla, err := sess.Renegotiate(ctx, newReq, nil, nil)
		if err != nil || sla == nil {
			log.Fatalf("softsoa-bench: bench renegotiation failed: %v", err)
		}
		return sla
	}
	rCold := renegotiated(nCold)
	renegotiated(nHot) // prime the renegotiation plan: first sighting
	renegotiated(nHot) // second sighting, stores it
	rHot := renegotiated(nHot)
	if rCold.AgreedLevel != rHot.AgreedLevel || rCold.Version != rHot.Version {
		log.Fatalf("softsoa-bench: replayed renegotiation diverged (level %v vs %v)",
			rHot.AgreedLevel, rCold.AgreedLevel)
	}
	cold = bench("cache/renegotiate/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			renegotiated(nCold)
		}
	})
	h0, m0 = tierTotals(hc)
	bench("cache/renegotiate/hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			renegotiated(nHot)
		}
	})
	last().Speedup = round3(cold.NsPerOp / last().NsPerOp)
	last().HitRate = hitRate(hc, h0, m0)
}

// tierTotals reads the plan tier's hits and misses.
func tierTotals(c *cache.Cache) (hits, misses int64) {
	st := c.TierStats(cache.TierSearch)
	return st.Hits, st.Misses
}

// hitRate is the fraction of lookups since the (h0, m0) snapshot that
// hit; 0 when nothing was looked up.
func hitRate(c *cache.Cache, h0, m0 int64) float64 {
	h, m := tierTotals(c)
	h, m = h-h0, m-m0
	if h+m == 0 {
		return 0
	}
	return round3(float64(h) / float64(h+m))
}

// mustNegotiate runs one negotiation and dies on anything but an
// agreement — the bench shapes are chosen to always agree.
func mustNegotiate(ctx context.Context, n *broker.Negotiator, req broker.Request) *soa.SLA {
	sla, _, err := n.Negotiate(ctx, req)
	if err != nil || sla == nil {
		log.Fatalf("softsoa-bench: bench negotiation failed: %v", err)
	}
	return sla
}

// benchRegistry publishes two cost providers for the negotiation rows.
func benchRegistry() *soa.Registry {
	reg := soa.NewRegistry()
	for _, d := range []*soa.Document{
		{Service: "failmgmt", Provider: "p1", Region: "eu", Attributes: []soa.Attribute{{
			Name: "fee", Metric: soa.MetricCost,
			Base: 2, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		}}},
		{Service: "failmgmt", Provider: "p2", Region: "us", Attributes: []soa.Attribute{{
			Name: "fee", Metric: soa.MetricCost,
			Base: 4, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		}}},
	} {
		if err := reg.Publish(d); err != nil {
			log.Fatalf("softsoa-bench: %v", err)
		}
	}
	return reg
}

// benchRequest is the negotiation template the cache rows repeat.
func benchRequest() broker.Request {
	lower := 20.0
	return broker.Request{
		Service: "failmgmt",
		Client:  "acme",
		Metric:  soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10,
		},
		Lower: &lower,
	}
}
