package broker

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"softsoa/internal/obs"
	"softsoa/internal/obs/journal"
	"softsoa/internal/soa"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden journal fixtures under testdata/journals")

// goldenJournals drives one broker through every kind of journal
// segment — viable and doomed prechecks, a breaker skip, a withheld
// program, plan replay, a failed negotiation, an accepted and a
// rejected renegotiation, a cost and a reliability composition — and
// returns the server with the ids of the journals it retained. Every
// request carries a fixed trace id so the journals are deterministic.
func goldenJournals(t *testing.T, opts ...ServerOption) (*httptest.Server, []string) {
	t.Helper()
	srv := NewServer(DefaultLinkPenalty, opts...)
	ts, client := serveForTest(t, srv)
	traced := func(name string) context.Context {
		return obs.ContextWithTrace(context.Background(), obs.NewTrace("golden-"+name))
	}
	ctx := context.Background()

	docs := []*soa.Document{
		costDoc("p1", "failmgmt", 2, 1, "eu"),
		costDoc("p2", "failmgmt", 4, 2, "us"),
		costDoc("pricey", "failmgmt", 50, 5, "eu"),
		costDoc("tripped", "failmgmt", 3, 1, "us"),
		{
			Service: "kwsvc", Provider: "kw", Region: "eu",
			Attributes: []soa.Attribute{{
				Name: "fee", Metric: soa.MetricCost,
				Base: 1, PerUnit: 1, Resource: "ask", MaxUnits: 5,
			}},
		},
	}
	costStages := []string{"store", "compute", "notify", "audit", "bill"}
	for s, stage := range costStages {
		for i, region := range []string{"eu", "us", "eu", "us", "ap"} {
			docs = append(docs, costDoc(stage+string(rune('a'+i)), stage,
				float64((7*i+3*s)%11+1), float64((i+s)%3), region))
		}
	}
	relStages := []string{"relA", "relB", "relC", "relD"}
	for s, stage := range relStages {
		for i, region := range []string{"eu", "us", "eu", "ap"} {
			docs = append(docs, reliabilityDoc(stage+string(rune('a'+i)), stage,
				float64(80+(5*i+3*s)%17), float64(1+(i+s)%3), region))
		}
	}
	for _, d := range docs {
		if err := client.Publish(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	srv.health.Trip("tripped")

	req := func(base float64) NegotiateRequest {
		return NegotiateRequest{
			Service: "failmgmt", Client: "shop", Metric: soa.MetricCost,
			Requirement: soa.Attribute{
				Name: "budget", Metric: soa.MetricCost,
				Base: base, PerUnit: 1, Resource: "failures", MaxUnits: 10,
			},
			Lower: fptr(20),
			Upper: fptr(2),
		}
	}
	// Viable p1/p2, doomed pricey, breaker-skipped tripped.
	sla, err := client.Negotiate(traced("negotiate"), req(3))
	if err != nil {
		t.Fatal(err)
	}
	reneg := func(name string, base float64) error {
		_, err := client.Renegotiate(traced(name), RenegotiateRequest{
			ID: sla.ID,
			Requirement: soa.Attribute{
				Name: "budget", Metric: soa.MetricCost,
				Base: base, PerUnit: 1, Resource: "failures", MaxUnits: 10,
			},
			Lower: fptr(20),
		})
		return err
	}
	if err := reneg("renegotiate-accepted", 0); err != nil {
		t.Fatal(err)
	}
	var noAgreement *ErrNoAgreement
	if err := reneg("renegotiate-rejected", 30); !errors.As(err, &noAgreement) {
		t.Fatalf("rejected renegotiation: err = %v, want no agreement", err)
	}
	// The same request again is served from the negotiation plans.
	if _, err := client.Negotiate(traced("negotiate-replayed"), req(3)); err != nil {
		t.Fatal(err)
	}
	// Every provider doomed: a failed negotiation keeps a neg-N journal.
	if _, err := client.Negotiate(traced("negotiate-failed"), req(100)); !errors.As(err, &noAgreement) {
		t.Fatalf("failed negotiation: err = %v, want no agreement", err)
	}
	// A resource named after a keyword: the program is withheld.
	if _, err := client.Negotiate(traced("negotiate-keyword"), NegotiateRequest{
		Service: "kwsvc", Client: "shop", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Name: "budget", Metric: soa.MetricCost,
			Base: 2, PerUnit: 1, Resource: "ask", MaxUnits: 5,
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compose(traced("compose-cost"), ComposeRequest{
		Client: "shop", Metric: soa.MetricCost,
		Stages: append([]string{"failmgmt"}, costStages...),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compose(traced("compose-reliability"), ComposeRequest{
		Client: "shop", Metric: soa.MetricReliability,
		Stages: relStages,
	}); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	ids := append([]string(nil), srv.journalIDs...)
	srv.mu.Unlock()
	return ts, ids
}

// TestGoldenJournalBytes pins the flight recorder's wire format: every
// journal the scenario retains is served over HTTP byte for byte as
// recorded in testdata/journals, both as the JSONL dump and as the
// indented JSON document. Regenerate with -update only for an
// intended format change.
func TestGoldenJournalBytes(t *testing.T) {
	ts, ids := goldenJournals(t)
	if len(ids) != 6 {
		t.Fatalf("scenario retained %d journals (%v), want 6", len(ids), ids)
	}
	for _, id := range ids {
		for _, form := range []struct{ query, ext string }{{"?format=jsonl", ".jsonl"}, {"", ".json"}} {
			got := fetchJournal(t, ts, id, form.query)
			path := filepath.Join("testdata", "journals", id+form.ext)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: served bytes differ from %s\n got: %s\nwant: %s", id, path, got, want)
			}
		}
	}
}

// TestGoldenJournalBytesUnderSink: a journal sink reads every journal
// as soon as its request finishes — an SLA's journal again after each
// renegotiation, a cached plan's program and σ in every segment it
// replays into. The last dump of every journal, and the HTTP copy
// served after all those reads, must still be the pinned bytes.
func TestGoldenJournalBytesUnderSink(t *testing.T) {
	var mu sync.Mutex
	dumps := map[string][]byte{}
	ts, ids := goldenJournals(t, WithJournalSink(func(j *journal.Journal) {
		var b bytes.Buffer
		if err := j.WriteJSONL(&b); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		dumps[j.Meta().ID] = b.Bytes()
		mu.Unlock()
	}))
	for _, id := range ids {
		want, err := os.ReadFile(filepath.Join("testdata", "journals", id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		dump := dumps[id]
		mu.Unlock()
		if !bytes.Equal(dump, want) {
			t.Errorf("%s: last sink dump differs from the golden bytes\n got: %s\nwant: %s", id, dump, want)
		}
		if got := fetchJournal(t, ts, id, "?format=jsonl"); !bytes.Equal(got, want) {
			t.Errorf("%s: HTTP copy after the sink dumps differs\n got: %s\nwant: %s", id, got, want)
		}
	}
}

// fetchJournal GETs a retained journal's body.
func fetchJournal(t *testing.T, ts *httptest.Server, id, query string) []byte {
	t.Helper()
	body, err := getJournal(ts, id, query)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// getJournal is fetchJournal for goroutines other than the test's.
func getJournal(ts *httptest.Server, id, query string) ([]byte, error) {
	resp, err := ts.Client().Get(ts.URL + "/v1/negotiations/" + id + "/journal" + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET journal %s: %d %s", id, resp.StatusCode, body)
	}
	return body, nil
}
