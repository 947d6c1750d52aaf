package main

// The -cache group measures the negotiator's content-addressed solve
// cache end to end: the propagation-fixpoint tier and full
// negotiation / renegotiation plan replay through the broker. Every hot row solves
// the identical input as its cold partner — equality is asserted
// before timing — and records its speedup against the cold row.
// Absolute ratios are machine-dependent: treat a committed report as
// one machine's snapshot, not a portable constant.

import (
	"context"
	"log"
	"testing"

	"softsoa/internal/broker"
	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
	"softsoa/internal/workload"
)

// cacheBenches appends the cache group's entries to the report.
func cacheBenches(rep *Report, bench func(string, func(*testing.B)) Entry) {
	last := func() *Entry { return &rep.Entries[len(rep.Entries)-1] }

	// Tier 2: the propagation fixpoint memo against a raw Propagate of
	// the same instance. The shape is chosen so the fixpoint costs
	// well over the content hash a hit pays: many variables, wide
	// domains, dense tables.
	fp := mustSCSP(workload.SCSPParams{
		Vars: 24, DomainSize: 6, Density: 0.5, Tightness: 1, Seed: 27,
	})
	_, coldC0, _ := solver.Propagate(fp, 0)
	fc := cache.New(8)
	solver.PropagateCached(fc, fp, 0) // prime: the one miss
	if _, hotC0, _ := solver.PropagateCached(fc, fp, 0); hotC0 != coldC0 {
		log.Fatalf("softsoa-bench: cached fixpoint diverged: %v vs %v", hotC0, coldC0)
	}
	cold := bench("cache/fixpoint/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.Propagate(fp, 0)
		}
	})
	h0, m0 := tierTotals(fc)
	bench("cache/fixpoint/hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.PropagateCached(fc, fp, 0)
		}
	})
	last().Speedup = round3(cold.NsPerOp / last().NsPerOp)
	last().HitRate = hitRate(fc, h0, m0)

	// Negotiation through the broker: the cold negotiator has no
	// cache and runs the full pipeline (instance build, precheck
	// propagation, transition machine) per request; the hot one
	// replays the memoised plan.
	reg := benchRegistry()
	req := benchRequest()
	ctx := context.Background()
	hc := cache.New(256)
	nCold := broker.NewNegotiator(reg)
	nHot := broker.NewNegotiator(reg, broker.WithNegotiatorSolveCache(hc))
	slaCold := mustNegotiate(ctx, nCold, req)
	mustNegotiate(ctx, nHot, req) // prime: the one cold run
	slaHot := mustNegotiate(ctx, nHot, req)
	if slaCold.AgreedLevel != slaHot.AgreedLevel || slaCold.Providers[0] != slaHot.Providers[0] {
		log.Fatalf("softsoa-bench: replayed negotiation diverged (level %v vs %v)",
			slaHot.AgreedLevel, slaCold.AgreedLevel)
	}
	cold = bench("cache/negotiate/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustNegotiate(ctx, nCold, req)
		}
	})
	h0, m0 = tierTotals(hc)
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

// tierTotals sums hits and misses across all three cache tiers.
func tierTotals(c *cache.Cache) (hits, misses int64) {
	for _, t := range []cache.Tier{cache.TierTables, cache.TierFixpoint, cache.TierSearch} {
		st := c.TierStats(t)
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
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

// mustSCSP builds a workload instance or dies.
func mustSCSP(params workload.SCSPParams) *core.Problem[float64] {
	p, err := workload.RandomWeightedSCSP(params)
	if err != nil {
		log.Fatalf("softsoa-bench: %v", err)
	}
	return p
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
