package broker

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
)

// directMetrics are the metrics the broker negotiates, one per
// semiring it serves them under.
var directMetrics = []soa.Metric{soa.MetricCost, soa.MetricDowntime, soa.MetricReliability, soa.MetricPreference}

// directAttr draws a QoS attribute: affine costs with clamped
// negatives, percentages that clamp at 0 and 100, ranges of 0–12
// units on one of two resources, and arbitrary fractions, so ⊗ and ÷
// round. About a tenth of the draws is flat at the semiring's Zero,
// and one in twenty is NaN, which no ask entails.
func directAttr(rng *rand.Rand, metric soa.Metric) soa.Attribute {
	a := soa.Attribute{
		Name: "q", Metric: metric,
		Resource: []string{"units", "failures"}[rng.Intn(2)], MaxUnits: rng.Intn(13),
	}
	switch {
	case rng.Intn(20) == 0:
		a.Base = math.NaN()
	case rng.Intn(10) == 0:
		if metric == soa.MetricCost || metric == soa.MetricDowntime {
			a.Base = math.Inf(1)
		}
	case metric == soa.MetricCost || metric == soa.MetricDowntime:
		a.Base, a.PerUnit = rng.Float64()*40-5, rng.Float64()*6-3
	default:
		a.Base, a.PerUnit = rng.Float64()*120-10, rng.Float64()*20-10
	}
	return a
}

// directBounds draws an acceptance interval: each bound absent or a
// level of the metric's range, the two possibly inverted.
func directBounds(rng *rand.Rand, metric soa.Metric) (lower, upper *float64) {
	level := func() *float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		if metric == soa.MetricCost || metric == soa.MetricDowntime {
			return fptr(rng.Float64() * 60)
		}
		return fptr(rng.Float64())
	}
	return level(), level()
}

// sameConstraintBits reports whether two constraints over one space
// have the same scope and bit-identical tables.
func sameConstraintBits(a, b *core.Constraint[float64]) bool {
	return reflect.DeepEqual(a.Scope(), b.Scope()) && slices.EqualFunc(a.Values(nil), b.Values(nil),
		func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// machineNegotiation is the reference: the machine running the two
// agents of Example 1 with the default seed.
func machineNegotiation(t *testing.T, inst *negInstance, check sccp.Check[float64]) (*core.Store[float64], sccp.Status, int) {
	t.Helper()
	p := sccp.Tell[float64]{C: inst.offerCon, Next: sccp.Tell[float64]{C: inst.spPCon, Next: sccp.Ask[float64]{
		C: inst.spCCon, Next: sccp.Success[float64]{},
	}}}
	c := sccp.Tell[float64]{C: inst.reqCon, Next: sccp.Tell[float64]{C: inst.spCCon, Next: sccp.Ask[float64]{
		C: inst.spPCon, Check: check, Next: sccp.Success[float64]{},
	}}}
	m := sccp.NewMachine(inst.space, sccp.Par[float64](p, c))
	status, err := m.Run(negotiationFuel)
	if err != nil {
		t.Fatal(err)
	}
	return m.Store(), status, m.Steps()
}

// machineRenegotiation is the reference renegotiation: the machine
// running retract(old) → tell(next)→check on store.
func machineRenegotiation(t *testing.T, store *core.Store[float64], old, next *core.Constraint[float64], check sccp.Check[float64]) (sccp.Status, int) {
	t.Helper()
	agent := sccp.Retract[float64]{C: old, Next: sccp.Tell[float64]{C: next, Check: check, Next: sccp.Success[float64]{}}}
	m := sccp.NewMachine(store.Space(), agent, sccp.WithStore(store))
	status, err := m.Run(renegotiationFuel)
	if err != nil {
		t.Fatal(err)
	}
	return status, m.Steps()
}

// compareRuns fails unless the direct run left what the machine left:
// status, transition count, every σ cell's bits, σ⇓∅'s bits and the
// best resource allocation.
func compareRuns(t *testing.T, label string, sr semiring.Semiring[float64], inst *negInstance,
	direct, machine *core.Store[float64], dStatus, mStatus sccp.Status, dSteps, mSteps int) {
	t.Helper()
	if dStatus != mStatus || dSteps != mSteps {
		t.Fatalf("%s: direct %v after %d transitions, machine %v after %d", label, dStatus, dSteps, mStatus, mSteps)
	}
	if !sameConstraintBits(direct.Constraint(), machine.Constraint()) {
		t.Fatalf("%s: σ differs:\ndirect  %v\nmachine %v", label, direct.Constraint(), machine.Constraint())
	}
	if g, w := math.Float64bits(direct.Blevel()), math.Float64bits(machine.Blevel()); g != w {
		t.Fatalf("%s: σ⇓∅ bits %#x, machine %#x", label, g, w)
	}
	if g, w := bestResources(sr, direct.Constraint(), inst.resourceVars), bestResources(sr, machine.Constraint(), inst.resourceVars); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: resources %v, machine %v", label, g, w)
	}
}

// TestDirectNegotiationMatchesMachine: applying the agents' effects
// directly leaves what the machine's seed-1 run leaves — status,
// transition count, σ bit for bit, σ⇓∅ and resources — over every
// metric the broker serves, random offers, requirements and bounds.
func TestDirectNegotiationMatchesMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, metric := range directMetrics {
		sr, err := soa.SemiringFor(metric)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := map[sccp.Status]int{}
		for i := 0; i < 300; i++ {
			offer, req := directAttr(rng, metric), directAttr(rng, metric)
			lower, upper := directBounds(rng, metric)
			label := fmt.Sprintf("%s #%d offer %+v req %+v bounds %v/%v", metric, i, offer, req, lower, upper)
			inst, err := newNegInstance(sr, req, offer)
			if err != nil {
				t.Fatal(err)
			}
			check := sccp.Check[float64]{LowerValue: lower, UpperValue: upper}
			direct, dStatus, dSteps := applyNegotiation(inst, check)
			machine, mStatus, mSteps := machineNegotiation(t, inst, check)
			compareRuns(t, label, sr, inst, direct, machine, dStatus, mStatus, dSteps, mSteps)
			outcomes[dStatus]++
		}
		if outcomes[sccp.Succeeded] == 0 || outcomes[sccp.Stuck] == 0 {
			t.Errorf("%s: draws reached only %v", metric, outcomes)
		}
	}
}

// TestDirectRenegotiationChainsMatchMachine runs chains of 50
// renegotiations three ways in lockstep — the machine, the direct
// retract/tell, and Session.Renegotiate — from one agreement. After
// every step the direct run matches the machine's (before rollback),
// and the session matches the reference after it: accepted or not,
// σ's bits, σ⇓∅, resources and version.
func TestDirectRenegotiationChainsMatchMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	for _, metric := range directMetrics {
		sr, err := soa.SemiringFor(metric)
		if err != nil {
			t.Fatal(err)
		}
		for chain := 0; chain < 4; chain++ {
			// An agreement to start from: finite, and not flat at Zero.
			offer, req := directAttr(rng, metric), directAttr(rng, metric)
			offer.Base, req.Base = float64(rng.Intn(30)), float64(rng.Intn(30))
			inst, err := newNegInstance(sr, req, offer)
			if err != nil {
				t.Fatal(err)
			}
			ref, status, _ := machineNegotiation(t, inst, sccp.Check[float64]{})
			if status != sccp.Succeeded {
				t.Fatalf("%s chain %d: unbounded negotiation %v", metric, chain, status)
			}
			start, _, _ := applyNegotiation(inst, sccp.Check[float64]{})
			sess := newSession(sr, Request{Service: "svc", Client: "c", Metric: metric, Requirement: req}, "p", offer, inst,
				start, resourceBindings(sr, start.Constraint(), inst.resourceVars))
			refReq, version, accepted := inst.reqCon, 1, 0
			for step := 0; step < 50; step++ {
				next := directAttr(rng, metric)
				next.Resource = inst.names[rng.Intn(len(inst.names))]
				lower, upper := directBounds(rng, metric)
				label := fmt.Sprintf("%s chain %d step %d next %+v bounds %v/%v", metric, chain, step, next, lower, upper)
				check := sccp.Check[float64]{LowerValue: lower, UpperValue: upper}
				nextCon, err := next.ToConstraint(inst.space, inst.resourceVars[next.Resource])
				if err != nil {
					t.Fatal(err)
				}

				direct := core.StoreOf(ref.Constraint())
				dStatus, dSteps := applyRenegotiation(direct, refReq, nextCon, check)
				before := ref.Snapshot()
				mStatus, mSteps := machineRenegotiation(t, ref, refReq, nextCon, check)
				compareRuns(t, label, sr, inst, direct, ref, dStatus, mStatus, dSteps, mSteps)
				if mStatus == sccp.Succeeded {
					refReq = nextCon
					version++
					accepted++
				} else {
					ref.Restore(before)
				}

				sla, err := sess.Renegotiate(context.Background(), next, lower, upper)
				if err != nil {
					t.Fatal(err)
				}
				if (sla != nil) != (mStatus == sccp.Succeeded) {
					t.Fatalf("%s: session accepted = %v, machine %v", label, sla != nil, mStatus)
				}
				if !sameConstraintBits(sess.store.Constraint(), ref.Constraint()) {
					t.Fatalf("%s: session σ differs from the machine's after rollback", label)
				}
				if g, w := math.Float64bits(sess.AgreedLevel()), math.Float64bits(ref.Blevel()); g != w {
					t.Fatalf("%s: session σ⇓∅ bits %#x, machine %#x", label, g, w)
				}
				if g, w := bindingMap(sess.SLA().Resources), bestResources(sr, ref.Constraint(), inst.resourceVars); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: session resources %v, machine %v", label, g, w)
				}
				if sess.Version() != version {
					t.Fatalf("%s: session version %d, want %d", label, sess.Version(), version)
				}
			}
			if accepted == 0 || accepted == 50 {
				t.Errorf("%s chain %d: %d of 50 renegotiations accepted", metric, chain, accepted)
			}
		}
	}
}

// TestDeferredRunDerivesOnce: the readers of a deferred run share one
// machine run. Concurrent replays of a negotiation's and of a
// renegotiation's captured run (run with -race) hand back the same
// transitions and σ, equal to what the machine records for them.
func TestDeferredRunDerivesOnce(t *testing.T) {
	sr := semiring.Weighted{}
	offer := soa.Attribute{Name: "fee", Metric: soa.MetricCost, Base: 2, PerUnit: 1, Resource: "failures", MaxUnits: 10}
	req := soa.Attribute{Name: "budget", Metric: soa.MetricCost, Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10}
	inst, err := newNegInstance(sr, req, offer)
	if err != nil {
		t.Fatal(err)
	}
	store, _, steps := applyNegotiation(inst, sccp.Check[float64]{LowerValue: fptr(20)})
	sess := newSession(sr, Request{Service: "svc", Client: "c", Metric: soa.MetricCost, Requirement: req}, "p", offer, inst,
		store, resourceBindings(sr, store.Constraint(), inst.resourceVars))
	next := soa.Attribute{Name: "budget", Metric: soa.MetricCost, Base: 1, PerUnit: 0.5, Resource: "failures", MaxUnits: 10}
	runs := []struct {
		name  string
		run   journal.Run
		steps int
	}{
		{"negotiation", newNegProgram(sr, offer, req, fptr(20), nil), steps},
		{"renegotiation", newRenegProgram(sess, next, fptr(20), nil), 2},
	}
	for _, r := range runs {
		const readers = 4
		trs := make([][]journal.Transition, readers)
		finals := make([]fmt.Stringer, readers)
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				trs[i], finals[i] = r.run.Replay()
			}(i)
		}
		wg.Wait()
		if len(trs[0]) != r.steps {
			t.Fatalf("%s: replay recorded %d transitions, want %d", r.name, len(trs[0]), r.steps)
		}
		for i := 1; i < readers; i++ {
			if &trs[i][0] != &trs[0][0] || finals[i] != finals[0] {
				t.Errorf("%s: reader %d got a second machine run", r.name, i)
			}
		}
	}
}

// TestDeferredJournalConcurrentReads: journals whose runs are
// deferred serve the bytes of a journal read once, whether read
// concurrently (run with -race) or again afterwards — including two
// journals that share their runs through a cached plan, the one that
// stored it and the one that replayed it.
func TestDeferredJournalConcurrentReads(t *testing.T) {
	req := cacheTestRequest()
	_, _, _, want := negotiateJournaled(t, NewNegotiator(cacheTestRegistry(t)), req)
	n := NewNegotiator(cacheTestRegistry(t), WithNegotiatorSolveCache(cache.New(1024)))
	journals := make([]*journal.Journal, 3)
	for i := range journals {
		journals[i] = journal.New(0, journal.Meta{Kind: "negotiation"})
		if _, _, _, err := n.NegotiateSession(journal.ContextWith(context.Background(), journals[i]), req); err != nil {
			t.Fatal(err)
		}
	}
	const readers = 3
	got := make([]string, len(journals)*readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := journals[i/readers].WriteJSONL(&buf); err != nil {
				t.Error(err)
			}
			got[i] = buf.String()
		}(i)
	}
	wg.Wait()
	for _, j := range journals {
		got = append(got, journalBytes(t, j))
	}
	for i, g := range got {
		if g != want {
			t.Fatalf("read %d served\n%s\nwant\n%s", i, g, want)
		}
	}
}
