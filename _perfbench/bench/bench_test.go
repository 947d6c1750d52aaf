package bench

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
	"softsoa/perfbench/gen"
	"softsoa/perfbench/spans"
	"softsoa/perfbench/work"
)

func TestSeedFixesTheRequestStream(t *testing.T) {
	for _, name := range work.Names {
		w, err := work.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, pool: w.PoolRequests(5)}
		r.predictIDs()
		a, err := newPhase(w, 5, "ref", w.RefRate, 2*time.Second, r.ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPhase(w, 5, "ref", w.RefRate, 2*time.Second, r.ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(a.samples, b.samples) {
			t.Fatalf("%s: the same seed gave two different streams", name)
		}
		if !reflect.DeepEqual(w.PoolRequests(5), w.PoolRequests(5)) {
			t.Fatalf("%s: the same seed gave two different pools", name)
		}
		c, err := newPhase(w, 6, "ref", w.RefRate, 2*time.Second, r.ids)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) {
			t.Fatalf("%s: seeds 5 and 6 gave the same stream", name)
		}
		other, err := newPhase(w, 5, "warm", w.RefRate, 2*time.Second, r.ids)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.samples, other.samples) {
			t.Fatalf("%s: two phases of one seed share a schedule", name)
		}
	}
}

// inProcess serves a broker configured like brokerd -failover (minus
// durability) and runs a short phase of the workload against it.
func inProcess(t *testing.T, name string, tamper func(route string, a work.Answer) work.Answer) *runner {
	t.Helper()
	w, err := work.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	srv := broker.NewServer(broker.DefaultLinkPenalty,
		broker.WithFailover(broker.FailoverPolicy{Enabled: true, ViolationRate: 0.5, MinObservations: 3}),
		broker.WithSolverWorkers(0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	r := &runner{
		cfg: config{workload: w, seed: 3, workers: 2, out: &out, tamper: tamper},
		w:   w, res: &result{Correct: true, Metrics: map[string]metric{}},
		pool: w.PoolRequests(3), acked: map[string]*soa.SLA{},
	}
	if r.checker, err = work.NewChecker(w, r.pool); err != nil {
		t.Fatal(err)
	}
	r.predictIDs()
	s := newSender(strings.TrimPrefix(ts.URL, "http://"), 2, 10*time.Second)
	defer s.close()
	ctx := context.Background()
	for i := range w.Docs {
		req, err := work.PublishRequest(&w.Docs[i])
		if err != nil {
			t.Fatal(err)
		}
		if a := s.do(ctx, req, "publish"); a.Status != http.StatusCreated {
			t.Fatalf("publish: %d %s", a.Status, a.Body)
		}
	}
	for i, nr := range r.pool {
		req, err := work.Materialise(work.Op{Route: work.RouteNegotiate, Pool: -1, Negotiate: nr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := s.do(ctx, req, "pool")
		v := r.checker.Check(work.Op{Route: work.RouteNegotiate, Pool: -1, Negotiate: nr}, "", a)
		if v.Outcome != work.OK || v.SLA.ID != r.ids[i] {
			t.Fatalf("pool negotiation %d: %v %s", i, v.Outcome, v.Reason)
		}
	}
	p, err := r.offer(ctx, s, "ref", 100, 400*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.verify(p)
	if testing.Verbose() {
		io.Copy(io.Writer(testWriter{t}), &out)
	}
	return r
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

func TestOracleAcceptsTheBroker(t *testing.T) {
	for _, name := range work.Names {
		t.Run(name, func(t *testing.T) {
			if r := inProcess(t, name, nil); !r.res.Correct {
				t.Fatalf("%s: a correct broker was judged wrong", name)
			}
		})
	}
}

// falsify rewrites the agreed level of the first agreement answer.
func falsify() func(route string, a work.Answer) work.Answer {
	done := false
	return func(route string, a work.Answer) work.Answer {
		if done || a.Status != http.StatusOK || !bytes.Contains(a.Body, []byte(`agreedLevel="`)) ||
			(route != work.RouteNegotiate && route != work.RouteRenegotiate && route != work.RouteCompose) {
			return a
		}
		done = true
		i := bytes.Index(a.Body, []byte(`agreedLevel="`)) + len(`agreedLevel="`)
		body := append(append(append([]byte(nil), a.Body[:i]...), '9', '9'), a.Body[i:]...)
		return work.Answer{Status: a.Status, Body: body}
	}
}

func TestInjectedWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range work.Names {
		t.Run(name, func(t *testing.T) {
			r := inProcess(t, name, falsify())
			if r.res.Correct {
				t.Fatalf("%s: a falsified agreement went unnoticed", name)
			}
		})
	}
}

// reconciled runs the traced run's reconciliation on two requests
// whose handlers tracedd timed at 1ms and 0.5ms, against the handler
// time the broker's own histogram grew by.
func reconciled(t *testing.T, brokerSeconds float64) *runner {
	t.Helper()
	ms := int64(time.Millisecond)
	p := &phase{
		name:    "ref",
		ops:     []work.Op{{Route: work.RouteNegotiate}, {Route: work.RouteGetSLA}},
		samples: []gen.Sample{{Done: 2 * time.Millisecond}, {Due: time.Millisecond, Done: 2 * time.Millisecond}},
	}
	d := &spans.Dump{
		Roots: []spans.Interval{
			{ID: "ref-0", Start: 10 * ms, End: 11 * ms},
			{ID: "ref-1", Start: 20 * ms, End: 20*ms + ms/2},
		},
		Spans: []spans.Interval{{ID: "ref-0", Name: "parse", Start: 10 * ms, End: 10*ms + ms/4}},
	}
	before := scrape{`broker_http_request_seconds_sum{route="/v1/metrics"}`: 0.5}
	after := scrape{
		`broker_http_request_seconds_sum{route="/v1/negotiations"}`: brokerSeconds * 2 / 3,
		`broker_http_request_seconds_sum{route="/v1/slas/{id}"}`:    brokerSeconds / 3,
		`broker_http_request_seconds_sum{route="/v1/metrics"}`:      0.9,
	}
	var out bytes.Buffer
	r := &runner{cfg: config{out: &out}, res: &result{Correct: true, Metrics: map[string]metric{}}}
	l := &layers{r: r, plain: p, ref: p, d: d, before: before, after: after}
	l.trace()
	if testing.Verbose() {
		t.Log(out.String())
	}
	return r
}

func TestReconcileRatioChecksTheSpans(t *testing.T) {
	for _, c := range []struct {
		name          string
		brokerSeconds float64
		want          float64
		valid         bool
	}{
		{"wrappers cost a little", 0.0014, 1.5 / 1.4, true},
		{"roots miss handler time", 0.002, 0.75, false},
		{"roots count time the broker did not spend", 0.0009, 1.5 / 0.9, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := reconciled(t, c.brokerSeconds)
			got := r.res.Metrics["trace.reconcile_ratio"].Value
			if math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("reconcile ratio %.6f, want %.6f", got, c.want)
			}
			if r.res.Correct != c.valid {
				t.Fatalf("ratio %.4f: run valid %v, want %v", got, r.res.Correct, c.valid)
			}
		})
	}
}
