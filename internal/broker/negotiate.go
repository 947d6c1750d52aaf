package broker

import (
	"context"
	"fmt"
	"math"
	"sort"

	"softsoa/internal/cache"
	"softsoa/internal/core"
	"softsoa/internal/obs"
	"softsoa/internal/obs/journal"
	"softsoa/internal/policy"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// Request is a client's negotiation request (step 1): the wanted
// service, the metric to negotiate, the client's own QoS policy, and
// the acceptance interval for the agreed consistency level.
type Request struct {
	// Service is the abstract service to bind.
	Service string
	// Client names the requesting party.
	Client string
	// Metric selects what is negotiated and hence the semiring.
	Metric soa.Metric
	// Requirement is the client's own policy, translated to a soft
	// constraint and told to the shared store alongside the
	// provider's offer.
	Requirement soa.Attribute
	// Lower (a1) and Upper (a2) bound the acceptable consistency of
	// the final store, as in the checked transitions of the language;
	// nil means unbounded. For cost, Lower is the worst (highest)
	// acceptable total and Upper the "too good to be true" floor.
	// The bounds are immutable once the request is made: the checked
	// transition and the journal program keep these pointers.
	Lower *float64
	Upper *float64
	// Capabilities is the client's MUST/MAY capability policy;
	// providers that miss a MUST capability are excluded before
	// negotiation, and MAY coverage breaks ties between equally good
	// agreements. Requires the negotiator to have a vocabulary.
	Capabilities policy.Requirement
}

// Validate checks the request.
func (r *Request) Validate() error {
	if r.Service == "" {
		return fmt.Errorf("broker: request without service")
	}
	if r.Client == "" {
		return fmt.Errorf("broker: request without client")
	}
	if !r.Metric.Valid() {
		return fmt.Errorf("broker: unknown metric %q", r.Metric)
	}
	if r.Requirement.Metric != r.Metric {
		return fmt.Errorf("broker: requirement metric %q differs from negotiated %q",
			r.Requirement.Metric, r.Metric)
	}
	return nil
}

// ProviderOutcome records the result of negotiating with one
// provider.
type ProviderOutcome struct {
	// Provider names the provider.
	Provider string
	// Status is the nmsccp machine's final status.
	Status sccp.Status
	// Skipped explains why the provider was excluded before
	// negotiation (missing metric or capabilities); empty otherwise.
	Skipped string
	// Prechecked is true when the c∅ propagation precheck proved the
	// negotiation doomed and the machine run was skipped; the Status
	// is the Stuck outcome the run would have reached.
	Prechecked bool
	// AgreedLevel is the final store consistency (meaningful when
	// Status is Succeeded).
	AgreedLevel float64
	// Preference is the fuzzy MAY-capability coverage in [0,1]
	// (1 when the request states no capability policy).
	Preference float64
	// Resources is the best resource allocation under the agreement.
	Resources map[string]int
}

// Outcome is the full negotiation record across providers.
type Outcome struct {
	// PerProvider lists each attempted provider's result, in
	// registry order.
	PerProvider []ProviderOutcome
	// Best indexes the winning provider in PerProvider, or -1.
	Best int
}

// ProviderFilter gates provider selection: it reports whether the
// provider may be negotiated with and, when not, why (e.g. "circuit
// breaker open"). The broker server installs one backed by its
// HealthBoard so sick providers are skipped.
type ProviderFilter func(provider string) (ok bool, reason string)

// negotiationFuel and renegotiationFuel bound the machine runs; they
// are part of every cached plan's meaning (a plan replays a run of
// exactly this fuel), so they are package-level constants rather than
// per-call choices.
const (
	negotiationFuel   = 200
	renegotiationFuel = 50
)

// Negotiator is the broker's negotiation engine over a registry.
type Negotiator struct {
	reg    *soa.Registry
	vocab  *policy.Vocabulary
	filter ProviderFilter
	cache  *cache.Cache
}

// NegotiatorOption configures a Negotiator.
type NegotiatorOption func(*Negotiator)

// WithVocabulary equips the negotiator with a capability vocabulary,
// enabling MUST/MAY capability policies in requests.
func WithVocabulary(v *policy.Vocabulary) NegotiatorOption {
	return func(n *Negotiator) { n.vocab = v }
}

// WithProviderFilter gates every negotiation on the filter; excluded
// providers appear in the outcome as skipped with the filter's
// reason. A nil filter admits everyone.
func WithProviderFilter(f ProviderFilter) NegotiatorOption {
	return func(n *Negotiator) { n.filter = f }
}

// WithNegotiatorSolveCache attaches a content-addressed solve cache.
// It memoises whole negotiation plans — status, transition stream,
// final store — keyed by (semiring, offer, requirement, acceptance
// interval), and renegotiation plans keyed by (session history, new
// requirement, bounds). A plan is stored only on the second sighting
// of its key (cache.Admit): the first runs cold and stores nothing,
// so requests that never repeat cost no cache memory. The compiled
// instance and the precheck's c∅ are recomputed per cold run. Cached
// and cold negotiations are bit-identical: same outcome, same SLA,
// and byte-for-byte the same journal segments. A nil cache disables
// caching.
func WithNegotiatorSolveCache(c *cache.Cache) NegotiatorOption {
	return func(n *Negotiator) { n.cache = c }
}

// NewNegotiator returns a negotiator over the registry.
func NewNegotiator(reg *soa.Registry, opts ...NegotiatorOption) *Negotiator {
	n := &Negotiator{reg: reg}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Negotiate runs the paper's protocol: discover the providers
// (step 2), for each run a provider/client nmsccp agent pair on a
// shared store (steps 3–4), and bind the best successful agreement
// into an SLA (step 5). It returns the SLA, the per-provider
// outcomes, and an error only for invalid requests or an empty
// registry; "no agreement" is reported via a nil SLA. The context
// carries the request's trace (if any); each provider's precheck and
// machine run is recorded as a span on it.
func (n *Negotiator) Negotiate(ctx context.Context, req Request) (*soa.SLA, *Outcome, error) {
	sla, _, outcome, err := n.negotiate(ctx, req)
	return sla, outcome, err
}

// negotiate is the engine behind Negotiate and NegotiateSession.
func (n *Negotiator) negotiate(ctx context.Context, req Request) (*soa.SLA, *Session, *Outcome, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, nil, err
	}
	docs := n.reg.Discover(req.Service)
	if len(docs) == 0 {
		return nil, nil, nil, fmt.Errorf("broker: no providers registered for %q", req.Service)
	}
	sr, err := soa.SemiringFor(req.Metric)
	if err != nil {
		return nil, nil, nil, err
	}

	hasPolicy := len(req.Capabilities.Must) > 0 || len(req.Capabilities.May) > 0
	if hasPolicy && n.vocab == nil {
		return nil, nil, nil, fmt.Errorf("broker: request states a capability policy but the broker has no vocabulary")
	}

	// The flight recorder, when the caller attached one: every
	// provider attempt becomes a journal segment, replayable when the
	// negotiation program could be synthesised.
	j := journal.FromContext(ctx)
	if j != nil {
		j.SetSemiring(sr)
	}
	skip := func(provider, reason string) {
		if j == nil {
			return
		}
		j.BeginSegment(journal.Segment{
			Label: "negotiate:" + provider,
			Note:  "skipped: " + reason,
		})
		j.EndSegment(sccp.Stuck.String(), "", "")
	}

	out := &Outcome{Best: -1}
	var bestLevel, bestPref float64
	var bestSession *Session
	for _, doc := range docs {
		if n.filter != nil {
			if ok, reason := n.filter(doc.Provider); !ok {
				out.PerProvider = append(out.PerProvider, ProviderOutcome{
					Provider: doc.Provider, Status: sccp.Stuck, Skipped: reason,
				})
				skip(doc.Provider, reason)
				continue
			}
		}
		attr, ok := doc.Attr(req.Metric)
		if !ok {
			reason := fmt.Sprintf("no %q attribute", req.Metric)
			out.PerProvider = append(out.PerProvider, ProviderOutcome{
				Provider: doc.Provider, Status: sccp.Stuck, Skipped: reason,
			})
			skip(doc.Provider, reason)
			continue
		}
		pref := 1.0
		if hasPolicy {
			match, err := n.vocab.Evaluate(req.Capabilities, policy.Offer{Supports: doc.Capabilities})
			if err != nil {
				return nil, nil, nil, err
			}
			if !match.Satisfied {
				reason := fmt.Sprintf("missing MUST capabilities %v", match.MissingMust)
				out.PerProvider = append(out.PerProvider, ProviderOutcome{
					Provider: doc.Provider, Status: sccp.Stuck, Skipped: reason,
				})
				skip(doc.Provider, reason)
				continue
			}
			pref = match.Preference
		}
		po, sess, err := n.negotiateOne(ctx, sr, req, doc.Provider, attr)
		if err != nil {
			return nil, nil, nil, err
		}
		po.Preference = pref
		out.PerProvider = append(out.PerProvider, po)
		if po.Status != sccp.Succeeded {
			continue
		}
		better := semiring.Gt(sr, po.AgreedLevel, bestLevel) ||
			(sr.Eq(po.AgreedLevel, bestLevel) && po.Preference > bestPref)
		if out.Best < 0 || better {
			out.Best = len(out.PerProvider) - 1
			bestLevel = po.AgreedLevel
			bestPref = po.Preference
			bestSession = sess
		}
	}
	if out.Best < 0 {
		return nil, nil, out, nil
	}
	return bestSession.SLA(), bestSession, out, nil
}

// negotiateOne runs the two-agent nmsccp negotiation for a single
// provider: P ≡ tell(offer) → tell(spP) → ask(spC) → success and
// C ≡ tell(requirement) → tell(spC) → ask(spP)→[a1,a2] success,
// mirroring Example 1 of the paper with the client carrying the
// acceptance interval.
func (n *Negotiator) negotiateOne(
	ctx context.Context,
	sr semiring.Semiring[float64],
	req Request,
	provider string,
	offer soa.Attribute,
) (ProviderOutcome, *Session, error) {
	j := journal.FromContext(ctx)
	// wantPlan: this run captures its outcome and stores it as a plan.
	// Only a key the doorkeeper has seen before earns one; a first
	// sighting runs without capture and stores nothing.
	var wantPlan bool
	var planKey cache.Key
	if n.cache != nil {
		planKey = negPlanKey(sr.Name(), offer, req.Requirement, req.Lower, req.Upper)
		if v, ok := n.cache.Get(cache.TierSearch, planKey); ok {
			if pl, ok := v.(*negPlan); ok {
				po, sess := n.replayNegotiation(j, sr, req, provider, planKey, pl)
				return po, sess, nil
			}
		}
		wantPlan = n.cache.Admit(planKey)
	}

	inst, err := newNegInstance(sr, req.Requirement, offer)
	if err != nil {
		return ProviderOutcome{}, nil, err
	}
	space, resourceVars := inst.space, inst.resourceVars
	offerCon, reqCon := inst.offerCon, inst.reqCon
	spPCon, spCCon := inst.spPCon, inst.spCCon

	// Propagation precheck: node consistency over the two constraints
	// about to be told yields c∅, and for a store of unaries c∅ equals
	// the eventual blevel exactly — the same floating-point Times
	// applications in the same order, and the sync flags contribute the
	// exact identity One at the success labels. So when the client
	// states a lower bound a1 and already c∅ < a1, the checked ask can
	// never fire: skip the machine run and report the Stuck outcome it
	// would have reached. solver.NodeBound folds the two tables the way
	// one round of solver.Propagate does, without rewriting a problem.
	var czero float64
	if req.Lower != nil {
		sp := obs.StartSpan(ctx, "precheck:"+provider)
		czero = solver.NodeBound(space, offerCon, reqCon)
		sp.End()
		if semiring.Lt(sr, czero, *req.Lower) {
			note := fmt.Sprintf("prechecked: c∅ = %s below lower threshold %s, machine run skipped",
				sr.Format(czero), sr.Format(*req.Lower))
			if j != nil {
				// No program: the live run was skipped, so there is
				// nothing to replay — the segment is evidence only.
				j.BeginSegment(journal.Segment{
					Label: "negotiate:" + provider,
					Note:  note,
				})
				j.RecordSearch(journal.Search{Kind: journal.Propagate, Reason: journal.Doomed, Value: czero})
				j.EndSegment(sccp.Stuck.String(), "", "")
			}
			if wantPlan {
				n.cache.Put(cache.TierSearch, planKey, &negPlan{
					inst: inst, offer: offer,
					prechecked: true,
					czero:      czero,
					doomedNote: note,
				})
			}
			return ProviderOutcome{Provider: provider, Status: sccp.Stuck, Prechecked: true}, nil, nil
		}
	}

	check := sccp.Check[float64]{LowerValue: req.Lower, UpperValue: req.Upper}
	pAgent := sccp.Tell[float64]{C: offerCon, Next: sccp.Tell[float64]{C: spPCon, Next: sccp.Ask[float64]{
		C: spCCon, Next: sccp.Success[float64]{},
	}}}
	cAgent := sccp.Tell[float64]{C: reqCon, Next: sccp.Tell[float64]{C: spCCon, Next: sccp.Ask[float64]{
		C: spPCon, Check: check, Next: sccp.Success[float64]{},
	}}}

	// The journal program is captured as its inputs; the journal
	// synthesises and proves it only when read.
	var prog journal.Program
	if j != nil || wantPlan {
		prog = newNegProgram(sr.Name(), offer, req.Requirement, inst, req.Lower, req.Upper)
	}
	viable := req.Lower != nil
	var machineOpts []sccp.MachineOption[float64]
	if j != nil {
		j.BeginRun(journal.Segment{
			Label: "negotiate:" + provider,
			Seed:  1,
			Fuel:  negotiationFuel,
		}, prog)
		if viable {
			j.RecordSearch(journal.Search{Kind: journal.Propagate, Reason: journal.Viable, Value: czero})
		}
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

	m := sccp.NewMachine(space, sccp.Par[float64](pAgent, cAgent), machineOpts...)
	sp := obs.StartSpan(ctx, "nmsccp:"+provider)
	status, err := m.Run(negotiationFuel)
	sp.End()
	if err != nil {
		if j != nil {
			j.EndSegment("error", "", "")
		}
		return ProviderOutcome{}, nil, fmt.Errorf("broker: negotiation with %q: %w", provider, err)
	}
	endStore, endBlevel := &storeText{c: m.Store().Constraint()}, m.Store().Blevel()
	if j != nil {
		j.EndRun(status.String(), endStore, endBlevel)
	}
	po := ProviderOutcome{Provider: provider, Status: status}
	if status != sccp.Succeeded {
		if wantPlan {
			n.cache.Put(cache.TierSearch, planKey, &negPlan{
				inst: inst, offer: offer,
				program: prog, viable: viable, czero: czero, status: status,
				transitions: tee.events, endStore: endStore, endBlevel: endBlevel,
			})
		}
		return po, nil, nil
	}
	po.AgreedLevel = endBlevel
	po.Resources = bestResources(sr, m.Store().Constraint(), resourceVars)
	sess := &Session{
		histKey:      planKey,
		cache:        n.cache,
		provider:     provider,
		service:      req.Service,
		client:       req.Client,
		metric:       req.Metric,
		sr:           sr,
		space:        space,
		store:        m.Store(),
		reqCon:       reqCon,
		offerAttr:    offer,
		reqAttr:      req.Requirement,
		maxUnits:     inst.maxUnits,
		resourceVars: resourceVars,
		version:      1,
	}
	if wantPlan {
		n.cache.Put(cache.TierSearch, planKey, &negPlan{
			inst: inst, offer: offer,
			program: prog, viable: viable, czero: czero, status: status,
			transitions: tee.events, endStore: endStore, endBlevel: endBlevel,
			resources: copyResources(po.Resources),
			storeSnap: m.Store().Snapshot(),
		})
	}
	return po, sess, nil
}

// newNegInstance compiles the negotiation instance for an (offer,
// requirement) pair: the space with one variable per distinct resource
// name sized to cover both parties' declared ranges plus the two sync
// flags, and the four constraint tables the agents tell. Each cold run
// compiles its own; a plan keeps the instance it was built from, and
// every session minted from the plan shares it read-only.
func newNegInstance(
	sr semiring.Semiring[float64],
	reqAttr soa.Attribute,
	offer soa.Attribute,
) (*negInstance, error) {
	space := core.NewSpace[float64](sr)
	maxUnits := map[string]int{offer.Resource: offer.MaxUnits}
	if cur, ok := maxUnits[reqAttr.Resource]; !ok || reqAttr.MaxUnits > cur {
		maxUnits[reqAttr.Resource] = reqAttr.MaxUnits
	}
	resourceVars := map[string]core.Variable{}
	names := make([]string, 0, len(maxUnits))
	for name := range maxUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resourceVars[name] = space.AddVariable(core.Variable(name), core.IntDomain(0, maxUnits[name]))
	}
	spP := space.AddVariable("spP", core.IntDomain(0, 1))
	spC := space.AddVariable("spC", core.IntDomain(0, 1))

	offerCon, err := offer.ToConstraint(space, resourceVars[offer.Resource])
	if err != nil {
		return nil, err
	}
	reqCon, err := reqAttr.ToConstraint(space, resourceVars[reqAttr.Resource])
	if err != nil {
		return nil, err
	}
	flag := func(v core.Variable) *core.Constraint[float64] {
		return core.NewConstraint(space, []core.Variable{v}, func(a core.Assignment) float64 {
			if a.Num(v) == 1 {
				return sr.One()
			}
			return sr.Zero()
		})
	}
	return &negInstance{
		space:        space,
		names:        names,
		maxUnits:     maxUnits,
		resourceVars: resourceVars,
		offerCon:     offerCon,
		reqCon:       reqCon,
		spPCon:       flag(spP),
		spCCon:       flag(spC),
	}, nil
}

// bestResources extracts the resource allocation attaining the
// store's best consistency level.
func bestResources(
	sr semiring.Semiring[float64],
	sigma *core.Constraint[float64],
	resourceVars map[string]core.Variable,
) map[string]int {
	keep := make([]core.Variable, 0, len(resourceVars))
	for _, v := range resourceVars {
		keep = append(keep, v)
	}
	proj := core.ProjectTo(sigma, keep...)
	best := sr.Zero()
	var bestAsst core.Assignment
	proj.ForEach(func(a core.Assignment, v float64) {
		if bestAsst == nil || semiring.Gt(sr, v, best) {
			best = v
			cp := make(core.Assignment, len(a))
			for k, dv := range a {
				cp[k] = dv
			}
			bestAsst = cp
		}
	})
	out := make(map[string]int, len(resourceVars))
	for name, v := range resourceVars {
		if dv, ok := bestAsst[v]; ok {
			out[name] = int(math.Round(dv.Num))
		}
	}
	return out
}
