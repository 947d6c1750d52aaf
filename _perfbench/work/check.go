package work

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"net/http"
	"sync"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
)

// Outcome classifies one answer.
type Outcome int

const (
	// OK is a correct answer.
	OK Outcome = iota
	// NoAgreement is a correct 409: no provider could agree.
	NoAgreement
	// Failed is a transport error, timeout, 5xx, 429 or any status the
	// op cannot legitimately produce.
	Failed
	// Wrong is an answer that disagrees with the cold oracle.
	Wrong
)

func (o Outcome) String() string {
	return [...]string{"ok", "no_agreement", "failed", "wrong"}[o]
}

// Answer is what the broker sent back for one op.
type Answer struct {
	Status int
	Body   []byte
	// Err is a transport error or timeout; Status is 0 then.
	Err error
}

// Verdict is the checked outcome of one answer. SLA carries the
// agreement an answer acknowledged (negotiate, renegotiate, get-sla),
// so the caller can track acknowledged state.
type Verdict struct {
	Outcome Outcome
	Reason  string
	SLA     *soa.SLA
}

// Checker compares answers with a cold, sequential, cache-less
// in-process Negotiator, Session and Composer over the same
// catalogue. It is safe for concurrent use; oracle results are
// memoised by request, so a workload repeating one requirement pays
// for it once.
type Checker struct {
	w        *Workload
	pool     []*broker.NegotiateRequest
	full     *broker.Negotiator
	single   map[string]*broker.Negotiator
	composer *broker.Composer

	mu   sync.Mutex
	memo map[string]oracleResult // guarded by mu
}

type oracleResult struct {
	sla *soa.SLA // nil: no agreement
	err error
}

// NewChecker builds the oracle over the workload's catalogue; pool
// holds the original request of every pool SLA, by pool index.
func NewChecker(w *Workload, pool []*broker.NegotiateRequest) (*Checker, error) {
	full := soa.NewRegistry()
	c := &Checker{w: w, pool: pool, single: map[string]*broker.Negotiator{}, memo: map[string]oracleResult{}}
	for i := range w.Docs {
		doc := w.Docs[i]
		if err := full.Publish(&doc); err != nil {
			return nil, fmt.Errorf("oracle catalogue: %w", err)
		}
		one := soa.NewRegistry()
		if err := one.Publish(&doc); err != nil {
			return nil, fmt.Errorf("oracle catalogue: %w", err)
		}
		c.single[doc.Provider] = broker.NewNegotiator(one)
	}
	c.full = broker.NewNegotiator(full)
	c.composer = broker.NewComposer(full, broker.DefaultLinkPenalty)
	return c, nil
}

func request(nr *broker.NegotiateRequest) broker.Request {
	return broker.Request{
		Service: nr.Service, Client: nr.Client, Metric: nr.Metric,
		Requirement: nr.Requirement, Lower: nr.Lower, Upper: nr.Upper,
	}
}

// oracle memoises fn under key.
func (c *Checker) oracle(key string, fn func() (*soa.SLA, error)) (*soa.SLA, error) {
	c.mu.Lock()
	r, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return r.sla, r.err
	}
	sla, err := fn()
	c.mu.Lock()
	c.memo[key] = oracleResult{sla, err}
	c.mu.Unlock()
	return sla, err
}

// key renders the oracle inputs; JSON keeps nil bounds distinct.
func key(parts ...any) string {
	b, err := json.Marshal(parts)
	if err != nil {
		return fmt.Sprintf("%#v", parts)
	}
	return string(b)
}

// negotiate is the cold negotiation of nr, over one provider when
// provider is set and over the whole catalogue otherwise.
func (c *Checker) negotiate(nr *broker.NegotiateRequest, provider string) (*soa.SLA, error) {
	n := c.full
	if provider != "" {
		var ok bool
		if n, ok = c.single[provider]; !ok {
			return nil, fmt.Errorf("unknown provider %q", provider)
		}
	}
	return c.oracle(key("neg", provider, nr), func() (*soa.SLA, error) {
		sla, _, err := n.Negotiate(context.Background(), request(nr))
		return sla, err
	})
}

// renegotiate is the cold renegotiation of a pool SLA bound to
// provider: the original request negotiated afresh, then relaxed.
func (c *Checker) renegotiate(orig *broker.NegotiateRequest, provider string, rr *broker.RenegotiateRequest) (*soa.SLA, error) {
	n, ok := c.single[provider]
	if !ok {
		return nil, fmt.Errorf("unknown provider %q", provider)
	}
	return c.oracle(key("reneg", provider, orig, rr.Requirement, rr.Lower, rr.Upper), func() (*soa.SLA, error) {
		_, sess, _, err := n.NegotiateSession(context.Background(), request(orig))
		if err != nil {
			return nil, err
		}
		if sess == nil {
			return nil, fmt.Errorf("pool request does not agree with %s", provider)
		}
		return sess.Renegotiate(context.Background(), rr.Requirement, rr.Lower, rr.Upper)
	})
}

func (c *Checker) compose(cr *broker.ComposeRequest) (*soa.SLA, error) {
	return c.oracle(key("compose", cr), func() (*soa.SLA, error) {
		sla, _, err := c.composer.Compose(broker.PipelineRequest{
			Client: cr.Client, Stages: cr.Stages, Metric: cr.Metric, Lower: cr.Lower,
		})
		return sla, err
	})
}

func wrong(format string, args ...any) Verdict {
	return Verdict{Outcome: Wrong, Reason: fmt.Sprintf(format, args...)}
}

func failed(format string, args ...any) Verdict {
	return Verdict{Outcome: Failed, Reason: fmt.Sprintf(format, args...)}
}

// Check classifies the answer to op, sent for the SLA id (empty for
// ops that address none).
func (c *Checker) Check(op Op, id string, a Answer) Verdict {
	if a.Err != nil {
		return failed("%s: %v", op.Route, a.Err)
	}
	switch {
	case a.Status == http.StatusTooManyRequests || a.Status >= 500:
		return failed("%s: status %d", op.Route, a.Status)
	case a.Status == http.StatusConflict:
		return c.checkConflict(op, id, a.Body)
	case a.Status != http.StatusOK:
		return failed("%s: unexpected status %d: %s", op.Route, a.Status, a.Body)
	}
	switch op.Route {
	case RouteNegotiate:
		return c.checkNegotiate(op, a.Body)
	case RouteRenegotiate:
		return c.checkRenegotiate(op, id, a.Body)
	case RouteCompose:
		return c.checkCompose(op, a.Body)
	case RouteObserve:
		var or broker.ObserveResponse
		if err := xml.Unmarshal(a.Body, &or); err != nil {
			return wrong("observe: decode: %v", err)
		}
		// A failover rebinds the SLA to a fresh monitor, which has not
		// seen the observation that triggered it.
		if or.ID != id || or.Violated != op.Violate || (or.Report.Observations < 1 && !or.FailedOver) {
			return wrong("observe %s: got id=%s violated=%v observations=%d, want violated=%v",
				id, or.ID, or.Violated, or.Report.Observations, op.Violate)
		}
		return Verdict{Outcome: OK}
	case RouteGetSLA:
		var sla soa.SLA
		if err := xml.Unmarshal(a.Body, &sla); err != nil {
			return wrong("get-sla: decode: %v", err)
		}
		if sla.ID != id || sla.Version < 1 || len(sla.Providers) != 1 {
			return wrong("get-sla %s: got id=%s version=%d providers=%v", id, sla.ID, sla.Version, sla.Providers)
		}
		return Verdict{Outcome: OK, SLA: &sla}
	case RouteCompliance:
		var rep broker.MonitorReport
		if err := xml.Unmarshal(a.Body, &rep); err != nil {
			return wrong("compliance: decode: %v", err)
		}
		if rep.Violations > rep.Observations || rep.Violations < 0 {
			return wrong("compliance %s: %d violations of %d observations", id, rep.Violations, rep.Observations)
		}
		return Verdict{Outcome: OK}
	}
	return failed("unknown route %q", op.Route)
}

func (c *Checker) checkNegotiate(op Op, body []byte) Verdict {
	var got soa.SLA
	if err := xml.Unmarshal(body, &got); err != nil {
		return wrong("negotiate: decode: %v", err)
	}
	if len(got.Providers) != 1 || got.ID == "" || got.Version != 1 {
		return wrong("negotiate: malformed agreement id=%q version=%d providers=%v", got.ID, got.Version, got.Providers)
	}
	provider := got.Providers[0]
	if c.w.ExactWinner {
		provider = ""
	}
	want, err := c.negotiate(op.Negotiate, provider)
	if err != nil {
		return wrong("negotiate oracle: %v", err)
	}
	if want == nil || !Equal(&got, want) {
		return wrong("negotiate %s: broker agreed %s, cold negotiation %s", got.ID, Describe(&got), Describe(want))
	}
	return Verdict{Outcome: OK, SLA: &got}
}

func (c *Checker) checkRenegotiate(op Op, id string, body []byte) Verdict {
	var got soa.SLA
	if err := xml.Unmarshal(body, &got); err != nil {
		return wrong("renegotiate: decode: %v", err)
	}
	if got.ID != id || len(got.Providers) != 1 || got.Version < 2 {
		return wrong("renegotiate %s: malformed agreement id=%q version=%d providers=%v",
			id, got.ID, got.Version, got.Providers)
	}
	want, err := c.renegotiate(c.pool[op.Pool], got.Providers[0], op.Renegotiate)
	if err != nil {
		return wrong("renegotiate oracle: %v", err)
	}
	if want == nil || !Equal(&got, want) {
		return wrong("renegotiate %s: broker agreed %s, cold renegotiation %s", id, Describe(&got), Describe(want))
	}
	return Verdict{Outcome: OK, SLA: &got}
}

func (c *Checker) checkCompose(op Op, body []byte) Verdict {
	var got soa.SLA
	if err := xml.Unmarshal(body, &got); err != nil {
		return wrong("compose: decode: %v", err)
	}
	want, err := c.compose(op.Compose)
	if err != nil {
		return wrong("compose oracle: %v", err)
	}
	if want == nil || !Equal(&got, want) {
		return wrong("compose %v: broker bound %s, cold composition %s", op.Compose.Stages, Describe(&got), Describe(want))
	}
	return Verdict{Outcome: OK}
}

// checkConflict decides whether a 409 is a correct refusal.
func (c *Checker) checkConflict(op Op, id string, body []byte) Verdict {
	var fr broker.FailureResponse
	if err := xml.Unmarshal(body, &fr); err != nil {
		return wrong("%s: 409 with undecodable body: %v", op.Route, err)
	}
	switch op.Route {
	case RouteNegotiate:
		for _, p := range fr.Tried {
			if p.Status == "succeeded" {
				return wrong("negotiate: 409 although %s succeeded", p.Name)
			}
		}
		if !c.w.ExactWinner {
			// Open breakers may have skipped every provider.
			return Verdict{Outcome: NoAgreement}
		}
		want, err := c.negotiate(op.Negotiate, "")
		if err != nil {
			return wrong("negotiate oracle: %v", err)
		}
		if want != nil {
			return wrong("negotiate: 409, cold negotiation agrees %s", Describe(want))
		}
		return Verdict{Outcome: NoAgreement}
	case RouteCompose:
		want, err := c.compose(op.Compose)
		if err != nil {
			return wrong("compose oracle: %v", err)
		}
		if want != nil {
			return wrong("compose: 409, cold composition binds %s", Describe(want))
		}
		return Verdict{Outcome: NoAgreement}
	}
	// Every renegotiation a workload draws is accepted by every
	// provider, so a refusal is wrong.
	return wrong("%s %s: 409 %q", op.Route, id, fr.Reason)
}
