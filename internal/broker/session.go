package broker

import (
	"context"
	"fmt"
	"sort"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
)

// Session is a live negotiation session: the shared constraint store
// behind a signed SLA. It is what makes renegotiation nonmonotonic —
// instead of starting over, the client's old requirement is retracted
// (÷) from the very store the agreement was computed on and the new
// one told, exactly as the paper's Example 2 relaxes a merged policy.
// A Session is not safe for concurrent use; the broker server
// serialises access per SLA.
type Session struct {
	// histKey is the session's content-derived history: the negotiation
	// plan key it was minted under, folded with every successful
	// renegotiation's key since. It determines the current σ bit for
	// bit, so it keys cached renegotiation plans — and two sessions
	// with equal histories (repeat negotiations of the same template)
	// share them. cache is the negotiator's solve cache (nil when
	// caching is off).
	histKey cache.Key
	cache   *cache.Cache

	provider     string
	service      string
	client       string
	metric       soa.Metric
	sr           semiring.Semiring[float64]
	space        *core.Space[float64]
	store        *core.Store[float64]
	reqCon       *core.Constraint[float64]
	resourceVars map[string]core.Variable
	version      int

	// offerAttr, reqAttr and maxUnits remember the QoS policies and
	// variable ranges the session was negotiated under, so a
	// renegotiation journal segment can synthesise a replayable
	// program (journalprog.go). reqAttr tracks the current
	// requirement across renegotiations.
	offerAttr soa.Attribute
	reqAttr   soa.Attribute
	maxUnits  map[string]int
}

// Provider returns the bound provider.
func (s *Session) Provider() string { return s.provider }

// Version counts the agreements reached on this session (1 after the
// initial negotiation, +1 per successful renegotiation).
func (s *Session) Version() int { return s.version }

// AgreedLevel returns the current store consistency.
func (s *Session) AgreedLevel() float64 { return s.store.Blevel() }

// SLA renders the session's current agreement.
func (s *Session) SLA() *soa.SLA {
	sla := &soa.SLA{
		Service:     s.service,
		Client:      s.client,
		Providers:   []string{s.provider},
		Metric:      s.metric,
		AgreedLevel: s.store.Blevel(),
	}
	res := bestResources(s.sr, s.store.Constraint(), s.resourceVars)
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sla.Resources = append(sla.Resources, soa.ResourceBinding{Name: name, Units: res[name]})
	}
	return sla
}

// NegotiateSession is Negotiate, but additionally returns the live
// session of the winning agreement so it can be renegotiated later.
// The session is nil when no agreement was found.
func (n *Negotiator) NegotiateSession(ctx context.Context, req Request) (*soa.SLA, *Session, *Outcome, error) {
	return n.negotiate(ctx, req)
}

// Renegotiate relaxes the session nonmonotonically: it retracts the
// client's previous requirement from the store (rule R7) and tells
// the new one under the [lower, upper] acceptance interval (rule R1);
// lower and upper are immutable once passed, as in Request.
// On success the session advances a version and the new SLA is
// returned; on failure the store is rolled back, the old agreement
// stands, and a nil SLA is returned. When the context carries a
// flight-recorder journal, the retract/tell pair is recorded as a
// replayable segment whose setup prefix rebuilds the session store.
func (s *Session) Renegotiate(ctx context.Context, newReq soa.Attribute, lower, upper *float64) (*soa.SLA, error) {
	if newReq.Metric != s.metric {
		return nil, fmt.Errorf("broker: renegotiation metric %q differs from session metric %q",
			newReq.Metric, s.metric)
	}
	resVar, ok := s.resourceVars[newReq.Resource]
	if !ok {
		return nil, fmt.Errorf("broker: renegotiation resource %q not part of the session", newReq.Resource)
	}
	newCon, err := newReq.ToConstraint(s.space, resVar)
	if err != nil {
		return nil, err
	}

	j := journal.FromContext(ctx)
	var memoKey cache.Key
	if s.cache != nil {
		memoKey = renegKey(s.histKey, newReq, lower, upper)
		if v, ok := s.cache.Get(cache.TierSearch, memoKey); ok {
			// A success plan restores the cached post-run snapshot, so
			// it is only usable by sessions over the same space object
			// (plans can outlive their tier-1 instance in the LRU and a
			// rebuilt instance is a fresh space; σ content is equal but
			// Restore is rightly strict). Mismatches fall through cold.
			if pl, ok := v.(*renegPlan); ok && (pl.postSnap == nil || pl.postSnap.Space() == s.space) {
				return s.replayRenegotiation(j, memoKey, newReq, newCon, pl)
			}
		}
	}

	check := sccp.Check[float64]{LowerValue: lower, UpperValue: upper}
	agent := sccp.Retract[float64]{
		C: s.reqCon,
		Next: sccp.Tell[float64]{
			C:     newCon,
			Check: check,
			Next:  sccp.Success[float64]{},
		},
	}

	// The journal program is captured before the run mutates the
	// session; the journal synthesises it only when read.
	wantPlan := s.cache != nil
	var prog journal.Program
	var note string
	if j != nil || wantPlan {
		prog = newRenegProgram(s, newReq, lower, upper)
		note = fmt.Sprintf("session version %d", s.version)
	}
	var machineOpts []sccp.MachineOption[float64]
	machineOpts = append(machineOpts, sccp.WithStore[float64](s.store))
	if j != nil {
		j.SetSemiring(s.sr)
		j.BeginRun(journal.Segment{
			Label: "renegotiate:" + s.provider,
			Seed:  1,
			Fuel:  renegotiationFuel,
			Note:  note,
		}, prog)
	}
	var tee *teeRecorder
	if wantPlan {
		var live journal.Recorder
		if j != nil {
			live = j
		}
		tee = &teeRecorder{live: live}
		machineOpts = append(machineOpts, sccp.WithRecorder(tee))
	} else if j != nil {
		machineOpts = append(machineOpts, sccp.WithRecorder(j))
	}

	snapshot := s.store.Snapshot()
	m := sccp.NewMachine(s.space, agent, machineOpts...)
	status, err := m.Run(renegotiationFuel)
	if err != nil {
		if j != nil {
			j.EndSegment("error", "", "")
		}
		s.store.Restore(snapshot)
		return nil, err
	}
	// Record the machine's view of the store before any rollback: the
	// replay re-executes the run itself, not the rollback.
	endStore, endBlevel := &storeText{c: s.store.Constraint()}, s.store.Blevel()
	if j != nil {
		j.EndRun(status.String(), endStore, endBlevel)
	}
	if wantPlan {
		pl := &renegPlan{
			prog: prog, note: note, status: status,
			transitions: tee.events, endStore: endStore, endBlevel: endBlevel,
		}
		if status == sccp.Succeeded {
			pl.postSnap = s.store.Snapshot()
		}
		s.cache.Put(cache.TierSearch, memoKey, pl)
	}
	if status != sccp.Succeeded {
		s.store.Restore(snapshot)
		return nil, nil
	}
	s.histKey = memoKey
	s.reqCon = newCon
	s.reqAttr = newReq
	s.version++
	return s.SLA(), nil
}

// replayRenegotiation serves a renegotiation from a cached plan: the
// journal segment is re-emitted byte for byte (same captured program,
// transitions and final store), and on success the session
// store is restored to the cached post-run snapshot — the same σ the
// cold run left behind — before the version advances.
func (s *Session) replayRenegotiation(
	j *journal.Journal,
	memoKey cache.Key,
	newReq soa.Attribute,
	newCon *core.Constraint[float64],
	pl *renegPlan,
) (*soa.SLA, error) {
	if j != nil {
		j.SetSemiring(s.sr)
		j.BeginRun(journal.Segment{
			Label: "renegotiate:" + s.provider,
			Seed:  1,
			Fuel:  renegotiationFuel,
			Note:  pl.note,
		}, pl.prog)
		for _, tr := range pl.transitions {
			j.RecordTransition(tr)
		}
		j.EndRun(pl.status.String(), pl.endStore, pl.endBlevel)
	}
	if pl.status != sccp.Succeeded {
		return nil, nil
	}
	s.store.Restore(pl.postSnap)
	s.histKey = memoKey
	s.reqCon = newCon
	s.reqAttr = newReq
	s.version++
	return s.SLA(), nil
}
