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
// negotiation plans (the full machine outcome — status, transition
// stream, final store — of a deterministic run) and the key function
// that addresses them. The machine is deterministic given (semiring,
// offer, requirement, bounds): seed 1, fixed fuel, fixed agent trees.
// A plan hit therefore replays the exact journal segment the cold run
// recorded — byte for byte, including the transition records — and
// mints a live Session from the cached store snapshot without burning
// fuel.
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
// A plan holds what the cold run journaled, as values rather than
// text: the captured program inputs, the raw c∅, the machine's
// journal.Transitions (constraint references and raw levels) and the
// final σ. Building one costs the cold run nothing beyond keeping
// references it already has, and a replay re-emits the same values,
// which the journal renders only when read. The program and σ render
// once and keep their text (journalprog.go), so every segment a plan
// replays into shares one proof and one printed σ.
//
// Plan keys deliberately exclude the provider *name*: two providers
// registering identical QoS attributes produce identical machine runs,
// so they share one plan; the replay stamps the current provider into
// the outcome and the journal label. Error outcomes (fuel exhaustion,
// machine faults) are never cached.
//
// Renegotiations are not cached. Each runs its retract/tell machine
// on the session's live store (Session.Renegotiate), so a session
// minted from a replayed plan renegotiates exactly as a cold one.

// teeRecorder captures the machine's transition stream for a plan
// while forwarding it unchanged to the live journal (when there is
// one), so a cold run under a recorder journals exactly as before.
type teeRecorder struct {
	live   journal.Recorder
	events []journal.Transition
}

func (t *teeRecorder) RecordTransition(r journal.Transition) {
	t.events = append(t.events, r)
	if t.live != nil {
		t.live.RecordTransition(r)
	}
}

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

// negInstance is everything negotiateOne compiles before fuel starts
// burning. All fields are immutable after construction — constraints
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

	// Doomed precheck: the machine never ran.
	prechecked bool
	doomedNote string // the segment note of the skipped run

	// Full run.
	program     journal.Program // the captured replayable program
	viable      bool            // a viable precheck ran before the machine
	status      sccp.Status
	transitions []journal.Transition
	endStore    *storeText
	endBlevel   float64 // σ⇓∅ after the run: the agreed level on success

	// Success extras.
	resources map[string]int
	storeSnap *core.Store[float64] // final σ; Snapshot() per minted session
}

// copyResources defends cached allocation maps against caller
// mutation.
func copyResources(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// replayNegotiation serves a negotiation from a cached plan: it
// re-emits the journal segment the cold run recorded (same label
// scheme, same captured program, same transitions, same final store
// — the replay checker cannot tell them apart) and, on
// success, mints a fresh Session over an independent snapshot of the
// cached final store.
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
		for _, tr := range pl.transitions {
			j.RecordTransition(tr)
		}
		j.EndRun(pl.status.String(), pl.endStore, pl.endBlevel)
	}
	po := ProviderOutcome{Provider: provider, Status: pl.status}
	if pl.status != sccp.Succeeded {
		return po, nil
	}
	po.AgreedLevel = pl.endBlevel
	po.Resources = copyResources(pl.resources)
	return po, newSession(sr, req, provider, pl.offer, pl.inst, pl.storeSnap.Snapshot())
}
