package broker

import (
	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
)

// This file is the broker side of the content-addressed solve cache:
// negotiation plans (the whole outcome of a deterministic run —
// status, transition count, final store) and the key function that
// addresses them. A negotiation is deterministic given (semiring,
// offer, requirement, bounds): fixed agents, applied in the seed-1
// schedule's order. A plan hit therefore records the exact journal
// segment the cold run recorded and mints a live Session from the
// cached store snapshot without applying anything.
//
// Plans are admitted on second sight (cache.Admit): the first
// sighting of a key runs cold without capturing anything, the second
// runs cold and stores its plan, and later ones replay it. A key that
// never repeats — every request of a stream of distinct requirements
// — therefore costs no cache memory, and a replay stays byte-equal
// to a cold run either way. The compiled negotiation instance (space
// and constraint tables) is not cached on its own: each cold run
// compiles one, and a plan keeps the instance it was built from.
//
// A plan holds what the cold run journaled, without transitions: the
// captured run (a negProgram: the program inputs, which render the
// program and replay the machine when a journal is read), the raw
// c∅, the status, the number of transitions reserved for them and
// σ⇓∅. Every segment a plan replays into shares the one run, so the
// machine runs, and the program is proved, at most once for all of
// them (journalprog.go).
//
// Plan keys deliberately exclude the provider *name*: two providers
// registering identical QoS attributes produce identical runs, so
// they share one plan; the replay stamps the current provider into
// the outcome and the journal label.
//
// Renegotiations are not cached. Each applies its retract/tell to the
// session's live store (Session.Renegotiate), so a session minted
// from a replayed plan renegotiates exactly as a cold one.

// hashAttr folds every field of a QoS attribute that reaches the
// compiled constraint (and the synthesised journal program).
func hashAttr(h *cache.Hasher, a soa.Attribute) {
	h.Str(a.Name)
	h.Str(string(a.Metric))
	h.Float(a.Base)
	h.Float(a.PerUnit)
	h.Str(a.Resource)
	h.Int(a.MaxUnits)
}

// negPlanKey addresses the complete outcome of a negotiation run: a
// function of (semiring, offer, requirement, acceptance interval).
func negPlanKey(srName string, offer, req soa.Attribute, lower, upper *float64) cache.Key {
	h := cache.NewHasher("neg-plan")
	h.Str(srName)
	hashAttr(h, offer)
	hashAttr(h, req)
	h.FloatPtr(lower)
	h.FloatPtr(upper)
	return h.Sum()
}

// negInstance is everything negotiateOne compiles before it applies
// the agents. All fields are immutable after construction — constraints
// and spaces are read-only by design, and names/maxUnits/resourceVars
// are never written post-build — so the instance a plan keeps is
// safely shared by concurrent replays and by every session minted
// from it; each run gets its own fresh store.
type negInstance struct {
	space        *core.Space[float64]
	names        []string
	maxUnits     map[string]int
	resourceVars map[string]core.Variable
	offerCon     *core.Constraint[float64]
	reqCon       *core.Constraint[float64]
	spPCon       *core.Constraint[float64]
	spCCon       *core.Constraint[float64]
}

// negPlan is the cached value for a whole negotiation run.
type negPlan struct {
	inst  *negInstance
	offer soa.Attribute // content-equal to every hit's offer

	// c∅ of the precheck: the doomed verdict's value, or the viable
	// one's when the request had a lower bound.
	czero float64

	// Doomed precheck: the run never happened.
	prechecked bool
	doomedNote string // the segment note of the skipped run

	// Full run.
	program   *negProgram // the captured run
	viable    bool        // a viable precheck ran before the run
	status    sccp.Status
	steps     int     // transitions the machine records for the run
	endBlevel float64 // σ⇓∅ after the run: the agreed level on success

	// Success extras, shared read-only by every minted session.
	resources []soa.ResourceBinding
	storeSnap *core.Store[float64] // final σ; Snapshot() per minted session
}

// replayNegotiation serves a negotiation from a cached plan: it
// records the journal segment the cold run recorded (same label
// scheme, same captured run, same outcome — the replay checker cannot
// tell them apart) and, on success, mints a fresh Session over an
// independent snapshot of the cached final store.
func (n *Negotiator) replayNegotiation(
	j *journal.Journal,
	sr semiring.Semiring[float64],
	req Request,
	provider string,
	pl *negPlan,
) (ProviderOutcome, *Session) {
	if pl.prechecked {
		if j != nil {
			j.BeginSegment(journal.Segment{
				Label: "negotiate:" + provider,
				Note:  pl.doomedNote,
			})
			j.RecordSearch(journal.Search{Kind: journal.Propagate, Reason: journal.Doomed, Value: pl.czero})
			j.EndSegment(sccp.Stuck.String(), "", "")
		}
		return ProviderOutcome{Provider: provider, Status: sccp.Stuck, Prechecked: true}, nil
	}
	if j != nil {
		j.BeginRun(journal.Segment{
			Label: "negotiate:" + provider,
			Seed:  1,
			Fuel:  negotiationFuel,
		}, pl.program)
		if pl.viable {
			j.RecordSearch(journal.Search{Kind: journal.Propagate, Reason: journal.Viable, Value: pl.czero})
		}
		j.EndDeferredRun(pl.program, pl.status.String(), pl.steps, pl.endBlevel)
	}
	po := ProviderOutcome{Provider: provider, Status: pl.status}
	if pl.status != sccp.Succeeded {
		return po, nil
	}
	po.AgreedLevel = pl.endBlevel
	po.Resources = bindingMap(pl.resources)
	return po, newSession(sr, req, provider, pl.offer, pl.inst, pl.storeSnap.Snapshot(), pl.resources)
}
