package broker

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// TestPrecheckVerdictsMatchPropagate: over every metric, random
// offers (on the client's resource or another one) and random lower
// bounds either side of the attainable level, each provider's precheck
// verdict and journalled c∅ are those of Propagate(p, 1) over the two
// tables, and the cold, cache-miss and cache-hit negotiations agree in
// outcome and journal bytes.
func TestPrecheckVerdictsMatchPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, metric := range []soa.Metric{soa.MetricCost, soa.MetricDowntime, soa.MetricReliability, soa.MetricPreference} {
		sr, err := soa.SemiringFor(metric)
		if err != nil {
			t.Fatal(err)
		}
		attr := func(name, resource string) soa.Attribute {
			return soa.Attribute{
				Name: name, Metric: metric,
				Base: float64(rng.Intn(60)), PerUnit: float64(rng.Intn(9) - 2),
				Resource: resource, MaxUnits: 1 + rng.Intn(10),
			}
		}
		reg := soa.NewRegistry()
		for i := 0; i < 10; i++ {
			resource := "failures"
			if i%3 == 2 {
				resource = "hours"
			}
			doc := &soa.Document{Service: "svc", Provider: fmt.Sprintf("p%d", i), Region: "eu",
				Attributes: []soa.Attribute{attr("offer", resource)}}
			if err := reg.Publish(doc); err != nil {
				t.Fatal(err)
			}
		}
		cold := NewNegotiator(reg)
		cached := NewNegotiator(reg, WithNegotiatorSolveCache(cache.New(256)))
		doomed, viable := 0, 0
		for r := 0; r < 12; r++ {
			lower := float64(rng.Intn(80))
			if metric == soa.MetricReliability || metric == soa.MetricPreference {
				lower /= 100
			}
			req := Request{Service: "svc", Client: "c", Metric: metric,
				Requirement: attr("need", "failures"), Lower: fptr(lower)}

			// The verdicts Propagate gives, per provider in registry order.
			want := map[string]string{}
			for _, doc := range reg.Discover("svc") {
				offer, _ := doc.Attr(metric)
				inst, err := newNegInstance(sr, req.Requirement, offer)
				if err != nil {
					t.Fatal(err)
				}
				_, czero, _ := solver.Propagate(core.NewProblem(inst.space).Add(inst.offerCon, inst.reqCon), 1)
				verdict := "viable"
				if semiring.Lt(sr, czero, lower) {
					verdict = "doomed"
					doomed++
				} else {
					viable++
				}
				want["negotiate:"+doc.Provider] = verdict + " " + sr.Format(czero)
			}

			outCold, jCold := precheckRun(t, cold, req)
			// Plans are admitted on second sight: the first cached run
			// stores nothing, the second stores the plan, the third
			// replays it.
			for _, label := range []string{"first sighting", "second sighting", "replay"} {
				out, j := precheckRun(t, cached, req)
				if !reflect.DeepEqual(out, outCold) || journalBytes(t, j) != journalBytes(t, jCold) {
					t.Fatalf("%s/%d: %s negotiation differs from the cold one", metric, r, label)
				}
			}
			got := precheckVerdicts(jCold)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: journalled verdicts %v, want %v", metric, r, got, want)
			}
			for _, po := range outCold.PerProvider {
				if po.Prechecked != strings.HasPrefix(want["negotiate:"+po.Provider], "doomed") {
					t.Fatalf("%s/%d: provider %s prechecked=%v, want %s", metric, r, po.Provider, po.Prechecked, want["negotiate:"+po.Provider])
				}
			}
		}
		if doomed == 0 || viable == 0 {
			t.Fatalf("%s: %d doomed and %d viable verdicts; the bounds miss one side", metric, doomed, viable)
		}
	}
}

// precheckRun negotiates req with a journal attached.
func precheckRun(t *testing.T, n *Negotiator, req Request) (*Outcome, *journal.Journal) {
	t.Helper()
	j := journal.New(0, journal.Meta{Kind: "negotiation"})
	_, out, err := n.Negotiate(journal.ContextWith(context.Background(), j), req)
	if err != nil {
		t.Fatal(err)
	}
	return out, j
}

// precheckVerdicts maps each segment label to its propagate event's
// reason and value.
func precheckVerdicts(j *journal.Journal) map[string]string {
	segments := j.Segments()
	out := map[string]string{}
	for _, ev := range j.Events() {
		if ev.Search != nil && ev.Search.Kind == "propagate" {
			out[segments[ev.Seg].Label] = ev.Search.Reason + " " + ev.Search.Value
		}
	}
	return out
}
