package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"softsoa/internal/obs"
	"softsoa/internal/soa"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := NewServer(DefaultLinkPenalty)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client())
}

// TestHTTPEndToEndNegotiation walks the full Fig. 6 protocol over
// HTTP: providers publish XML QoS documents, the client discovers
// them, requests a negotiation, and receives a signed SLA.
func TestHTTPEndToEndNegotiation(t *testing.T) {
	_, client := newTestServer(t)

	if err := client.Publish(context.Background(), costDoc("p1", "failmgmt", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(context.Background(), costDoc("p2", "failmgmt", 7, 1, "us")); err != nil {
		t.Fatal(err)
	}

	docs, err := client.Discover(context.Background(), "failmgmt")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("discovered %d docs, want 2", len(docs))
	}

	sla, err := client.Negotiate(context.Background(), NegotiateRequest{
		Service: "failmgmt",
		Client:  "shop",
		Metric:  soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "hours", Metric: soa.MetricCost,
			Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4),
		Upper: fptr(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sla.Providers[0] != "p1" || sla.AgreedLevel != 2 {
		t.Errorf("SLA = %+v, want p1 at level 2", sla)
	}
}

func TestHTTPNegotiationFailureReportsProviders(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), costDoc("p1", "failmgmt", 5, 1, "eu")); err != nil {
		t.Fatal(err)
	}
	_, err := client.Negotiate(context.Background(), NegotiateRequest{
		Service: "failmgmt",
		Client:  "shop",
		Metric:  soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4),
		Upper: fptr(1),
	})
	var noAgree *ErrNoAgreement
	if !errors.As(err, &noAgree) {
		t.Fatalf("err = %v, want ErrNoAgreement", err)
	}
	if len(noAgree.Tried) != 1 || noAgree.Tried[0].Name != "p1" || noAgree.Tried[0].Status != "stuck" {
		t.Errorf("tried = %+v", noAgree.Tried)
	}
}

func TestHTTPComposition(t *testing.T) {
	_, client := newTestServer(t)
	for _, d := range []*soa.Document{
		costDoc("red-eu", "red", 6, 0, "eu"),
		costDoc("red-us", "red", 5, 0, "us"),
		costDoc("bw-eu", "bw", 4, 0, "eu"),
	} {
		if err := client.Publish(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	sla, err := client.Compose(context.Background(), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"red", "bw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: red-eu + bw-eu = 10 (no cross-region penalty).
	if sla.AgreedLevel != 10 || len(sla.Providers) != 2 {
		t.Errorf("SLA = %+v, want total 10 over 2 providers", sla)
	}
	greedy, err := client.Compose(context.Background(), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"red", "bw"}, Greedy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.AgreedLevel != 14 { // red-us 5 + (bw-eu 4 + penalty 5)
		t.Errorf("greedy level = %v, want 14", greedy.AgreedLevel)
	}
	// A budget between the two rejects greedy but admits optimal.
	if _, err := client.Compose(context.Background(), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"red", "bw"},
		Greedy: true, Lower: fptr(12),
	}); err == nil {
		t.Error("greedy composition above budget should be rejected")
	}
	if _, err := client.Compose(context.Background(), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"red", "bw"}, Lower: fptr(12),
	}); err != nil {
		t.Errorf("optimal composition within budget rejected: %v", err)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, client := newTestServer(t)

	// Invalid QoS document.
	resp, err := http.Post(ts.URL+"/v1/providers", "application/xml", strings.NewReader("<qos/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("publish invalid: status %d", resp.StatusCode)
	}

	// Garbage XML.
	resp, err = http.Post(ts.URL+"/v1/negotiations", "application/xml", strings.NewReader("<negoti"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negotiate garbage: status %d", resp.StatusCode)
	}

	// Missing query parameter.
	resp, err = http.Get(ts.URL + "/v1/providers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("discover without query: status %d", resp.StatusCode)
	}

	// Unknown service negotiation → 400 from the negotiator.
	_, err = client.Negotiate(context.Background(), NegotiateRequest{
		Service: "ghost", Client: "c", Metric: soa.MetricCost,
		Requirement: soa.Attribute{Metric: soa.MetricCost, Resource: "x"},
	})
	if err == nil {
		t.Error("unknown service should error")
	}

	// Method not allowed.
	resp, err = http.Get(ts.URL + "/v1/observations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/observations: status %d", resp.StatusCode)
	}
}

func TestHTTPComposeNoCandidates(t *testing.T) {
	_, client := newTestServer(t)
	_, err := client.Compose(context.Background(), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"ghost"},
	})
	if err == nil {
		t.Error("composition over unknown stage should error")
	}
	var noAgree *ErrNoAgreement
	if errors.As(err, &noAgree) {
		t.Error("unknown stage is a request error, not a failed agreement")
	}
}

func TestClientAgainstDownServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", nil) // nothing listens here
	if err := client.Publish(context.Background(), costDoc("p", "s", 1, 0, "eu")); err == nil {
		t.Error("publish to dead server should error")
	}
	if _, err := client.Discover(context.Background(), "s"); err == nil {
		t.Error("discover against dead server should error")
	}
}

// TestConcurrentNegotiations hammers one broker with parallel
// negotiate/observe/compose traffic; the server must stay consistent
// (exercised under -race in CI runs).
func TestConcurrentNegotiations(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	if err := client.Publish(context.Background(), costDoc("p1", "svc", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(context.Background(), costDoc("p2", "stage", 3, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				sla, err := client.Negotiate(context.Background(), NegotiateRequest{
					Service: "svc", Client: fmt.Sprintf("c%d", i), Metric: soa.MetricCost,
					Requirement: soa.Attribute{
						Metric: soa.MetricCost, Base: 0, Resource: "failures", MaxUnits: 5,
					},
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := client.Observe(context.Background(), sla.ID, 1); err != nil {
					errs <- err
					return
				}
				if _, err := client.Compose(context.Background(), ComposeRequest{
					Client: "c", Metric: soa.MetricCost, Stages: []string{"stage"},
				}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOneInfoRecordPerRequest: a request's outcome rides on its
// access line, so each negotiate, renegotiate and compose request
// writes exactly one Info record, carrying the trace id, route, status
// and outcome.
func TestOneInfoRecordPerRequest(t *testing.T) {
	var logs bytes.Buffer
	srv := NewServer(DefaultLinkPenalty, WithLogger(obs.NewLogger(&logs, true, slog.LevelInfo)))
	// Requests are served in process: the access line is written when
	// ServeHTTP returns, not when a remote client reads the response.
	serve := func(path, trace, body string) {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		r.Header.Set(obs.TraceHeader, trace)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), r)
	}
	serve("/v1/providers", "publish",
		`<qos service="svc" provider="p1" region="eu"><attribute name="fee" metric="cost" base="2" perUnit="0" resource="failures" maxUnits="10"/></qos>`)
	negotiate := func(lower string) string {
		return `<negotiate service="svc" client="shop" metric="cost"><requirement metric="cost" base="0" perUnit="2" resource="failures" maxUnits="10"/><lower>` + lower + `</lower></negotiate>`
	}
	renegotiate := func(lower string) string {
		return `<renegotiate id="sla-1"><requirement metric="cost" base="0" perUnit="1" resource="failures" maxUnits="10"/><lower>` + lower + `</lower></renegotiate>`
	}
	compose := func(lower string) string {
		return `<compose client="shop" metric="cost"><stage>svc</stage><lower>` + lower + `</lower></compose>`
	}
	cases := []struct {
		trace, route, path, body, outcome string
		status                            float64
	}{
		{"neg-agreed", "/v1/negotiations", "/v1/negotiations", negotiate("40"), "agreed", 200},
		{"neg-none", "/v1/negotiations", "/v1/negotiations", negotiate("0.5"), "no_agreement", 409},
		{"reneg-agreed", "/v1/negotiations/{id}/renegotiate", "/v1/negotiations/sla-1/renegotiate", renegotiate("40"), "agreed", 200},
		{"reneg-rejected", "/v1/negotiations/{id}/renegotiate", "/v1/negotiations/sla-1/renegotiate", renegotiate("0.5"), "rejected", 409},
		{"comp-composed", "/v1/compositions", "/v1/compositions", compose("40"), "composed", 200},
		{"comp-none", "/v1/compositions", "/v1/compositions", compose("0.5"), "no_composition", 409},
	}
	for _, tc := range cases {
		serve(tc.path, tc.trace, tc.body)
	}
	byTrace := map[string][]map[string]any{}
	dec := json.NewDecoder(&logs)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec["level"] == "INFO" {
			trace, _ := rec["trace"].(string)
			byTrace[trace] = append(byTrace[trace], rec)
		}
	}
	for _, tc := range cases {
		recs := byTrace[tc.trace]
		if len(recs) != 1 {
			t.Errorf("%s wrote %d Info records, want 1: %v", tc.trace, len(recs), recs)
			continue
		}
		rec := recs[0]
		if rec["msg"] != "request" || rec["route"] != tc.route || rec["status"] != tc.status || rec["outcome"] != tc.outcome {
			t.Errorf("%s: access line %v, want route %s status %v outcome %s", tc.trace, rec, tc.route, tc.status, tc.outcome)
		}
	}
}

// getSLAAllocs bounds what serving GET /v1/slas/{id} allocates: 61
// measured with the agreement's view kept on the session (79 when
// every request projected σ afresh), plus 5%.
const getSLAAllocs = 64

// TestGetSLAAllocs: GET /v1/slas/{id} encodes the view the agreement
// computed once, byte for byte what it served when it projected σ per
// request, within its allocation budget. The race detector allocates
// on its own, so the budget is not checked under -race.
func TestGetSLAAllocs(t *testing.T) {
	srv := NewServer(DefaultLinkPenalty)
	_, client := serveForTest(t, srv)
	ctx := context.Background()
	for _, doc := range []*soa.Document{costDoc("p1", "failmgmt", 2, 1, "eu"), costDoc("p2", "failmgmt", 4, 2, "us")} {
		if err := client.Publish(ctx, doc); err != nil {
			t.Fatal(err)
		}
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{Name: "budget", Metric: soa.MetricCost, Base: 3, PerUnit: 1, Resource: "failures", MaxUnits: 10},
		Lower:       fptr(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var body string
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/slas/"+sla.ID, nil))
		body = rec.Body.String()
	}
	serve()
	const want = `<sla id="sla-1" service="failmgmt" client="shop" metric="cost" agreedLevel="5" version="1">
  <provider>p1</provider>
  <resource name="failures" units="0"></resource>
</sla>
`
	if body != want {
		t.Errorf("GET /v1/slas/%s served\n%s\nwant\n%s", sla.ID, body, want)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, serve); n > getSLAAllocs {
		t.Errorf("GET /v1/slas/{id} allocates %.0f times, ceiling %d", n, getSLAAllocs)
	}
}
