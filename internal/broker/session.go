package broker

import (
	"context"
	"fmt"
	"slices"

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
	provider string
	service  string
	client   string
	metric   soa.Metric
	sr       semiring.Semiring[float64]
	// inst is the compiled negotiation the session was agreed on: its
	// space, resource variables and their ranges (shared read-only).
	inst    *negInstance
	store   *core.Store[float64]
	reqCon  *core.Constraint[float64]
	version int

	// offerAttr and reqAttr remember the QoS policies the session was
	// negotiated under, so a renegotiation journal segment can
	// synthesise a replayable program (journalprog.go). reqAttr tracks
	// the current requirement across renegotiations.
	offerAttr soa.Attribute
	reqAttr   soa.Attribute

	// view is the current agreement as an SLA without ID and Version,
	// computed once per agreement (setView). Its slices are shared:
	// SLA copies them, and the server only encodes them.
	view soa.SLA
}

// newSession is the session of a negotiation with provider that
// agreed on inst with final store, whose resource allocation is res:
// version 1, under req's requirement.
func newSession(sr semiring.Semiring[float64], req Request, provider string, offer soa.Attribute,
	inst *negInstance, store *core.Store[float64], res []soa.ResourceBinding) *Session {
	s := &Session{
		provider: provider, service: req.Service, client: req.Client, metric: req.Metric, sr: sr,
		inst: inst, store: store, reqCon: inst.reqCon, version: 1, offerAttr: offer, reqAttr: req.Requirement,
	}
	s.setView(res)
	return s
}

// setView records the agreement the store now holds, whose resource
// allocation is res.
func (s *Session) setView(res []soa.ResourceBinding) {
	s.view = soa.SLA{
		Service:     s.service,
		Client:      s.client,
		Providers:   []string{s.provider},
		Metric:      s.metric,
		AgreedLevel: s.store.Blevel(),
		Resources:   res,
	}
}

// Provider returns the bound provider.
func (s *Session) Provider() string { return s.provider }

// Version counts the agreements reached on this session (1 after the
// initial negotiation, +1 per successful renegotiation).
func (s *Session) Version() int { return s.version }

// AgreedLevel returns the current store consistency.
func (s *Session) AgreedLevel() float64 { return s.view.AgreedLevel }

// SLA renders the session's current agreement.
func (s *Session) SLA() *soa.SLA {
	sla := s.view
	sla.Providers = slices.Clone(s.view.Providers)
	sla.Resources = slices.Clone(s.view.Resources)
	return &sla
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
	resVar, ok := s.inst.resourceVars[newReq.Resource]
	if !ok {
		return nil, fmt.Errorf("broker: renegotiation resource %q not part of the session", newReq.Resource)
	}
	newCon, err := newReq.ToConstraint(s.inst.space, resVar)
	if err != nil {
		return nil, err
	}

	j := journal.FromContext(ctx)
	var prog *renegProgram
	if j != nil {
		// The journal program is captured before the session changes;
		// the journal synthesises and replays it only when read.
		prog = newRenegProgram(s, newReq, lower, upper)
		j.SetSemiring(s.sr)
		j.BeginRun(journal.Segment{
			Label: "renegotiate:" + s.provider,
			Seed:  1,
			Fuel:  renegotiationFuel,
			Note:  fmt.Sprintf("session version %d", s.version),
		}, prog)
	}

	snapshot := s.store.Snapshot()
	status, steps := applyRenegotiation(s.store, s.reqCon, newCon, sccp.Check[float64]{LowerValue: lower, UpperValue: upper})
	// Record the run's view of the store before any rollback: the
	// replay re-executes the run itself, not the rollback.
	if j != nil {
		j.EndDeferredRun(prog, status.String(), steps, s.store.Blevel())
	}
	if status != sccp.Succeeded {
		s.store.Restore(snapshot)
		return nil, nil
	}
	s.reqCon = newCon
	s.reqAttr = newReq
	s.version++
	s.setView(resourceBindings(s.sr, s.store.Constraint(), s.inst.resourceVars))
	return s.SLA(), nil
}

// renegotiationAgent is a renegotiation's one agent:
// retract(old) → tell(next)→check success.
func renegotiationAgent(old, next *core.Constraint[float64], check sccp.Check[float64]) sccp.Agent[float64] {
	return sccp.Retract[float64]{C: old, Next: sccp.Tell[float64]{C: next, Check: check, Next: sccp.Success[float64]{}}}
}

// applyRenegotiation applies renegotiationAgent's effects to store
// without the machine, as rules R7 and R1 apply them: old is retracted
// when σ entails it, then next is told when the check holds on the
// result. It leaves the store as the machine's run leaves it and
// returns the status the machine reaches and the number of
// transitions it records: 2 on success, 1 when the check refuses the
// tell, 0 when σ does not entail old.
func applyRenegotiation(store *core.Store[float64], old, next *core.Constraint[float64], check sccp.Check[float64]) (sccp.Status, int) {
	if !store.Retract(old) {
		return sccp.Stuck, 0
	}
	retracted := store.Snapshot()
	store.Tell(next)
	if !check.Holds(store.Space().Semiring(), store.Constraint()) {
		store.Restore(retracted)
		return sccp.Stuck, 1
	}
	return sccp.Succeeded, 2
}
