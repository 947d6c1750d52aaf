package broker

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"softsoa/internal/obs"
	"softsoa/internal/soa"
)

// get fetches a path from the test server and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// post sends an XML body to a path and returns status + body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(out)
}

// TestPreV1RoutesRemoved: the pre-v1 paths are gone, not aliased.
// Each answers 404 on the method it used to serve, and the metrics
// catalogue no longer carries a legacy-request counter.
func TestPreV1RoutesRemoved(t *testing.T) {
	ts, client := newTestServer(t)
	if err := client.Publish(context.Background(), costDoc("p1", "failmgmt", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/publish"},
		{http.MethodGet, "/discover?service=failmgmt"},
		{http.MethodPost, "/negotiate"},
		{http.MethodPost, "/renegotiate"},
		{http.MethodGet, "/sla?id=sla-1"},
		{http.MethodPost, "/observe"},
		{http.MethodGet, "/compliance?id=sla-1"},
		{http.MethodPost, "/compose"},
		{http.MethodGet, "/health"},
	} {
		var status int
		if tc.method == http.MethodGet {
			status, _ = get(t, ts, tc.path)
		} else {
			status, _ = post(t, ts, tc.path, "<x/>")
		}
		if status != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, status)
		}
	}
	_, metrics := get(t, ts, "/v1/metrics")
	if strings.Contains(metrics, "broker_http_legacy") {
		t.Error("/v1/metrics still exports a broker_http_legacy counter")
	}
}

// TestTracePropagationEndToEnd drives a traced negotiation through
// the real client and server: the client's trace ID travels in
// X-Softsoa-Trace, the server adopts it, and the recorded trace
// carries the pipeline spans — parse, the negotiator's nmsccp run,
// and the SLA commit — under the client's ID.
func TestTracePropagationEndToEnd(t *testing.T) {
	ts, client := newTestServer(t)
	if err := client.Publish(context.Background(), costDoc("p1", "failmgmt", 2, 0, "eu")); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("cli-trace-1")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4), Upper: fptr(1),
	}); err != nil {
		t.Fatal(err)
	}

	// The server records the trace after the response is written, so
	// poll briefly instead of racing it.
	var spans []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, body := get(t, ts, "/v1/debug/traces")
		var dump struct {
			Traces []struct {
				ID    string `json:"id"`
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Fatalf("decode traces: %v\n%s", err, body)
		}
		for _, rec := range dump.Traces {
			if rec.ID == "cli-trace-1" {
				for _, sp := range rec.Spans {
					spans = append(spans, sp.Name)
				}
			}
		}
		if spans != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(spans) < 3 {
		t.Fatalf("traced negotiation recorded %d spans %v, want >= 3", len(spans), spans)
	}
	for _, want := range []string{"parse", "nmsccp:p1", "sla-commit"} {
		found := false
		for _, s := range spans {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("spans %v missing %q", spans, want)
		}
	}
}

// TestMetricsExposition drives one of everything through the v1 API
// and checks the Prometheus endpoint serves the full catalogue.
func TestMetricsExposition(t *testing.T) {
	ts, client := newTestServer(t)
	ctx := context.Background()
	for _, d := range []*soa.Document{
		costDoc("p1", "stage-a", 2, 0, "eu"),
		costDoc("p2", "stage-b", 3, 0, "eu"),
	} {
		if err := client.Publish(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	sla, err := client.Negotiate(ctx, NegotiateRequest{
		Service: "stage-a", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: fptr(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Observe(ctx, sla.ID, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compose(ctx, ComposeRequest{
		Client: "shop", Metric: soa.MetricCost, Stages: []string{"stage-a", "stage-b"},
	}); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, ts, "/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", status)
	}
	families := strings.Count(body, "# TYPE ")
	if families < 12 {
		t.Errorf("exposition serves %d families, want >= 12:\n%s", families, body)
	}
	for _, want := range []string{
		`broker_http_requests_total{route="/v1/negotiations",method="POST",status="200"} 1`,
		`broker_negotiations_total{outcome="agreed"} 1`,
		`broker_negotiation_blevel_count 1`,
		`broker_solver_solves_total{mode="optimal"} 1`,
		`broker_observations_total{result="ok"} 1`,
		`broker_slas_active 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestClientPing covers the health probe: success against a live
// broker, a typed *BrokerError against a broken one.
func TestClientPing(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusInternalServerError, "down for maintenance")
	}))
	t.Cleanup(broken.Close)
	err := NewClient(broken.URL, broken.Client()).Ping(context.Background())
	var be *BrokerError
	if !errors.As(err, &be) {
		t.Fatalf("Ping err = %v, want *BrokerError", err)
	}
	if be.Status != http.StatusInternalServerError || be.Reason != "down for maintenance" {
		t.Errorf("BrokerError = %+v", be)
	}
}
