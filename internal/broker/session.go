package broker

import (
	"context"
	"fmt"
	"sort"

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
}

// newSession is the session of a negotiation with provider that
// agreed on inst with final store: version 1, under req's requirement.
func newSession(sr semiring.Semiring[float64], req Request, provider string, offer soa.Attribute,
	inst *negInstance, store *core.Store[float64]) *Session {
	return &Session{
		provider: provider, service: req.Service, client: req.Client, metric: req.Metric, sr: sr,
		inst: inst, store: store, reqCon: inst.reqCon, version: 1, offerAttr: offer, reqAttr: req.Requirement,
	}
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
	res := bestResources(s.sr, s.store.Constraint(), s.inst.resourceVars)
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
	resVar, ok := s.inst.resourceVars[newReq.Resource]
	if !ok {
		return nil, fmt.Errorf("broker: renegotiation resource %q not part of the session", newReq.Resource)
	}
	newCon, err := newReq.ToConstraint(s.inst.space, resVar)
	if err != nil {
		return nil, err
	}

	j := journal.FromContext(ctx)
	check := sccp.Check[float64]{LowerValue: lower, UpperValue: upper}
	agent := sccp.Retract[float64]{
		C: s.reqCon,
		Next: sccp.Tell[float64]{
			C:     newCon,
			Check: check,
			Next:  sccp.Success[float64]{},
		},
	}

	machineOpts := []sccp.MachineOption[float64]{sccp.WithStore[float64](s.store)}
	if j != nil {
		// The journal program is captured before the run mutates the
		// session; the journal synthesises it only when read.
		j.SetSemiring(s.sr)
		j.BeginRun(journal.Segment{
			Label: "renegotiate:" + s.provider,
			Seed:  1,
			Fuel:  renegotiationFuel,
			Note:  fmt.Sprintf("session version %d", s.version),
		}, newRenegProgram(s, newReq, lower, upper))
		machineOpts = append(machineOpts, sccp.WithRecorder(j))
	}

	snapshot := s.store.Snapshot()
	m := sccp.NewMachine(s.inst.space, agent, machineOpts...)
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
	if j != nil {
		j.EndRun(status.String(), &storeText{c: s.store.Constraint()}, s.store.Blevel())
	}
	if status != sccp.Succeeded {
		s.store.Restore(snapshot)
		return nil, nil
	}
	s.reqCon = newCon
	s.reqAttr = newReq
	s.version++
	return s.SLA(), nil
}
