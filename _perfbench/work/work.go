// Package work defines the benchmark's workloads: the provider
// catalogue each one publishes, the SLA pool it warms, the seeded
// request stream it offers, and the checks that decide whether every
// answer the broker gave is correct.
package work

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
)

// Route names, as the benchmark reports them.
const (
	RouteNegotiate   = "negotiate"
	RouteRenegotiate = "renegotiate"
	RouteObserve     = "observe"
	RouteGetSLA      = "get-sla"
	RouteCompliance  = "compliance"
	RouteCompose     = "compose"
)

// Routes lists every route in report order.
var Routes = []string{RouteNegotiate, RouteRenegotiate, RouteObserve, RouteGetSLA, RouteCompliance, RouteCompose}

// Read reports whether a route only reads broker state.
func Read(route string) bool { return route == RouteGetSLA || route == RouteCompliance }

// Workload is one named traffic mix with its fixed reference rate,
// latency limit and capacity ladder.
type Workload struct {
	Name string
	Why  string
	// RefRate is the reference offered rate in arrivals per second.
	RefRate float64
	// LimitMS is the p99 latency limit a capacity rung must meet.
	LimitMS float64
	// Ladder lists the offered rates capacity is searched over,
	// ascending.
	Ladder []float64
	// Docs is the provider catalogue, published in order at set-up.
	Docs []soa.Document
	// PoolSize is how many SLAs set-up negotiates.
	PoolSize int
	// ExactWinner is true when the breakers stay closed, so a
	// negotiation must pick the same provider as a cold negotiation
	// over the whole catalogue; otherwise an open breaker may
	// legitimately skip a better provider, and only the named winner's
	// agreement is checked.
	ExactWinner bool

	mix    []weighted
	poolOp func(rng *rand.Rand) *broker.NegotiateRequest
	draw   func(w *Workload, rng *rand.Rand, route string) Op
}

type weighted struct {
	route  string
	weight int
}

// Op is one abstract request of a stream. SLA-addressed routes name a
// pool index; the SLA id is filled in when the op is materialised.
type Op struct {
	Route string
	// Pool indexes the warmed SLA pool (-1 when unused).
	Pool        int
	Negotiate   *broker.NegotiateRequest
	Renegotiate *broker.RenegotiateRequest
	Compose     *broker.ComposeRequest
	// Level is an observation's reported level; Violate is whether it
	// must count as a violation.
	Level   float64
	Violate bool
}

// Request is a materialised op: what goes on the wire.
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// Names lists the workloads in report order.
var Names = []string{"sla-steady", "negotiate-cold", "compose-cold"}

// Get returns the named workload.
func Get(name string) (*Workload, error) {
	switch name {
	case "sla-steady":
		return slaSteady(), nil
	case "negotiate-cold":
		return negotiateCold(), nil
	case "compose-cold":
		return composeCold(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

// PoolRequests returns the negotiations set-up issues, in order,
// drawn from the seed.
func (w *Workload) PoolRequests(seed int64) []*broker.NegotiateRequest {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	out := make([]*broker.NegotiateRequest, w.PoolSize)
	for i := range out {
		out[i] = w.poolOp(rng)
	}
	return out
}

// Stream draws n ops of the workload's mix from rng.
func (w *Workload) Stream(rng *rand.Rand, n int) []Op {
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	ops := make([]Op, n)
	for i := range ops {
		pick := rng.Intn(total)
		route := w.mix[0].route
		for _, m := range w.mix {
			if pick < m.weight {
				route = m.route
				break
			}
			pick -= m.weight
		}
		ops[i] = w.draw(w, rng, route)
	}
	return ops
}

// Materialise renders an op against the pool's SLA ids.
func Materialise(op Op, ids []string) (Request, error) {
	id := ""
	if op.Pool >= 0 {
		if op.Pool >= len(ids) {
			return Request{}, fmt.Errorf("op targets pool SLA %d of %d", op.Pool, len(ids))
		}
		id = ids[op.Pool]
	}
	switch op.Route {
	case RouteNegotiate:
		return post("/v1/negotiations", op.Negotiate)
	case RouteRenegotiate:
		rr := *op.Renegotiate
		rr.ID = id
		return post("/v1/negotiations/"+id+"/renegotiate", &rr)
	case RouteObserve:
		return post("/v1/observations", &broker.ObserveRequest{ID: id, Level: op.Level})
	case RouteGetSLA:
		return Request{Method: http.MethodGet, Path: "/v1/slas/" + id}, nil
	case RouteCompliance:
		return Request{Method: http.MethodGet, Path: "/v1/slas/" + id + "/compliance"}, nil
	case RouteCompose:
		return post("/v1/compositions", op.Compose)
	}
	return Request{}, fmt.Errorf("unknown route %q", op.Route)
}

// PublishRequest renders a catalogue document.
func PublishRequest(doc *soa.Document) (Request, error) { return post("/v1/providers", doc) }

func post(path string, v any) (Request, error) {
	body, err := xml.Marshal(v)
	if err != nil {
		return Request{}, fmt.Errorf("encode %s body: %w", path, err)
	}
	return Request{Method: http.MethodPost, Path: path, Body: body}, nil
}

func ptr(v float64) *float64 { return &v }

// quarter draws a multiple of 0.25 in [lo/4, hi/4]: sums of such
// values are exact in float64, so levels compare bit for bit.
func quarter(rng *rand.Rand, lo, hi int) float64 {
	return float64(lo+rng.Intn(hi-lo+1)) / 4
}

// catalogueRNG seeds the fixed catalogues: they do not vary with the
// run's seed, so seeds change only the traffic.
func catalogueRNG() *rand.Rand { return rand.New(rand.NewSource(20080624)) }

const (
	steadyService = "steady"
	coldService   = "cold"
)

func slaSteady() *Workload {
	w := &Workload{
		Name: "sla-steady",
		Why: "durable SLA lifecycle on one fixed requirement: fsynced WAL records, snapshots, " +
			"monitor, breakers and SLO burn rate; plan replay bypasses nmsccp and the solver",
		RefRate:  400,
		LimitMS:  100,
		Ladder:   ladder(400, 4800),
		PoolSize: 64,
		mix: []weighted{
			{RouteNegotiate, 1}, {RouteObserve, 6}, {RouteRenegotiate, 1},
			{RouteGetSLA, 1}, {RouteCompliance, 1},
		},
	}
	regions := []string{"eu", "us", "ap"}
	for i := 0; i < 3; i++ {
		w.Docs = append(w.Docs, soa.Document{
			Service: steadyService, Provider: fmt.Sprintf("steady-p%d", i+1), Region: regions[i],
			Attributes: []soa.Attribute{{
				Name: "fee", Metric: soa.MetricCost, Base: 2 + 0.25*float64(i),
				Resource: "failures", MaxUnits: 10,
			}},
		})
	}
	fixed := &broker.NegotiateRequest{
		Service: steadyService, Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost, Base: 0, PerUnit: 2,
			Resource: "failures", MaxUnits: 10,
		},
		Lower: ptr(4), Upper: ptr(1),
	}
	// Two relaxations, both accepted by every provider, so a
	// renegotiation never depends on which provider the SLA is bound
	// to at the moment it lands.
	relax := []soa.Attribute{
		{Name: "budget", Metric: soa.MetricCost, Base: 0.5, PerUnit: 1, Resource: "failures", MaxUnits: 10},
		{Name: "budget", Metric: soa.MetricCost, Base: 1, PerUnit: 0.5, Resource: "failures", MaxUnits: 10},
	}
	w.poolOp = func(*rand.Rand) *broker.NegotiateRequest { return fixed }
	w.draw = func(w *Workload, rng *rand.Rand, route string) Op {
		op := Op{Route: route, Pool: rng.Intn(w.PoolSize)}
		switch route {
		case RouteNegotiate:
			op.Pool = -1
			op.Negotiate = fixed
		case RouteRenegotiate:
			op.Renegotiate = &broker.RenegotiateRequest{
				Requirement: relax[rng.Intn(len(relax))], Lower: ptr(6), Upper: ptr(0),
			}
		case RouteObserve:
			// 30% violate: a level no binding agrees to; the rest report
			// the best possible level, which never violates.
			if rng.Float64() < 0.3 {
				op.Level, op.Violate = 100, true
			}
		}
		return op
	}
	return w
}

func negotiateCold() *Workload {
	w := &Workload{
		Name: "negotiate-cold",
		Why: "every request a distinct requirement across 8 providers: full precheck and nmsccp " +
			"run per provider, the solve cache only misses, inserts and evicts",
		RefRate:     150,
		LimitMS:     150,
		Ladder:      ladder(150, 1800),
		PoolSize:    64,
		ExactWinner: true,
		mix:         []weighted{{RouteNegotiate, 4}, {RouteRenegotiate, 4}, {RouteObserve, 2}},
	}
	for i := 0; i < 8; i++ {
		w.Docs = append(w.Docs, soa.Document{
			Service: coldService, Provider: fmt.Sprintf("cold-p%d", i+1),
			Region: []string{"eu", "us", "ap"}[i%3],
			Attributes: []soa.Attribute{{
				Name: "fee", Metric: soa.MetricCost, Base: 1 + 0.5*float64(i),
				PerUnit: -0.25 * float64(1+i%4), Resource: "units", MaxUnits: 8 + 2*i,
			}},
		})
	}
	// A requirement draw: fee and range vary, and the generous lower
	// bound (also drawn, so plan keys differ) keeps every provider in
	// agreement, which runs its precheck and machine in full and keeps
	// the breakers closed.
	requirement := func(rng *rand.Rand, maxHi int) (soa.Attribute, *float64) {
		return soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: quarter(rng, 0, 40), PerUnit: quarter(rng, 1, 100),
			Resource: "units", MaxUnits: 4 + rng.Intn(maxHi-3),
		}, ptr(10000 + quarter(rng, 0, 40000))
	}
	negotiation := func(rng *rand.Rand) *broker.NegotiateRequest {
		req, lower := requirement(rng, 24)
		return &broker.NegotiateRequest{
			Service: coldService, Client: "buyer", Metric: soa.MetricCost,
			Requirement: req, Lower: lower,
		}
	}
	w.poolOp = negotiation
	w.draw = func(w *Workload, rng *rand.Rand, route string) Op {
		op := Op{Route: route, Pool: rng.Intn(w.PoolSize)}
		switch route {
		case RouteNegotiate:
			op.Pool = -1
			op.Negotiate = negotiation(rng)
		case RouteRenegotiate:
			// Up to 8 units stays inside every session's resource domain.
			req, lower := requirement(rng, 8)
			op.Renegotiate = &broker.RenegotiateRequest{Requirement: req, Lower: lower}
		}
		return op
	}
	return w
}

func composeCold() *Workload {
	w := &Workload{
		Name: "compose-cold",
		Why: "optimal compositions of random 8-10 stage pipelines over 16 stages x 12 providers: " +
			"branch and bound dominates, memo and warm-start slots rarely hit",
		RefRate: 100,
		LimitMS: 300,
		Ladder:  ladder(100, 1200),
		mix:     []weighted{{RouteCompose, 1}},
	}
	const stages, providers = 16, 12
	rng := catalogueRNG()
	regions := []string{"eu", "us", "ap"}
	for s := 0; s < stages; s++ {
		for p := 0; p < providers; p++ {
			w.Docs = append(w.Docs, soa.Document{
				Service:  stageName(s),
				Provider: fmt.Sprintf("%s-p%02d", stageName(s), p),
				Region:   regions[rng.Intn(len(regions))],
				Attributes: []soa.Attribute{
					{Name: "fee", Metric: soa.MetricCost, Base: quarter(rng, 4, 200),
						PerUnit: quarter(rng, 0, 4), Resource: "units", MaxUnits: 3},
					{Name: "uptime", Metric: soa.MetricReliability,
						Base: float64(9000+rng.Intn(1000)) / 100, PerUnit: float64(rng.Intn(6)) / 100,
						Resource: "units", MaxUnits: 3},
				},
			})
		}
	}
	w.draw = func(_ *Workload, rng *rand.Rand, route string) Op {
		n := 8 + rng.Intn(3)
		perm := rng.Perm(stages)[:n]
		req := &broker.ComposeRequest{Client: "pipeline", Metric: soa.MetricCost}
		if rng.Intn(2) == 1 {
			req.Metric = soa.MetricReliability
		}
		for _, s := range perm {
			req.Stages = append(req.Stages, stageName(s))
		}
		return Op{Route: route, Pool: -1, Compose: req}
	}
	return w
}

func stageName(i int) string { return fmt.Sprintf("st%02d", i) }

// ladder returns geometric offered rates from lo to hi, 5% apart,
// rounded to whole arrivals per second.
func ladder(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= 1.05 {
		out = append(out, float64(int(r+0.5)))
	}
	sort.Float64s(out)
	return out
}

// Equal reports whether two SLAs agree on everything the negotiation
// or composition decides; ids and versions are the broker's.
func Equal(a, b *soa.SLA) bool {
	if a.Service != b.Service || a.Client != b.Client || a.Metric != b.Metric ||
		a.AgreedLevel != b.AgreedLevel || len(a.Providers) != len(b.Providers) ||
		len(a.Resources) != len(b.Resources) {
		return false
	}
	for i := range a.Providers {
		if a.Providers[i] != b.Providers[i] {
			return false
		}
	}
	for i := range a.Resources {
		if a.Resources[i] != b.Resources[i] {
			return false
		}
	}
	return true
}

// Describe renders an SLA for mismatch reports.
func Describe(s *soa.SLA) string {
	if s == nil {
		return "<none>"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v level=%v", s.Providers, s.AgreedLevel)
	for _, r := range s.Resources {
		fmt.Fprintf(&b, " %s=%d", r.Name, r.Units)
	}
	return b.String()
}
