package softsoa_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"softsoa/internal/broker"
	"softsoa/internal/broker/store"
)

// registeredOutsideServer are the families a production brokerd
// exposes that the server does not register itself, with their types.
var registeredOutsideServer = map[string]string{
	"faults_injected_total":     "counter", // faults.Injector.Register
	"journal_sink_errors_total": "counter", // brokerd -journal-dir
}

// readmeMetrics parses the README's metrics catalogue into family →
// type.
func readmeMetrics(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| family | type | labels | meaning |"):
			in = true
		case in && !strings.HasPrefix(line, "|"):
			return out
		case in && !strings.HasPrefix(line, "|---"):
			cols := strings.Split(line, "|")
			out[strings.Trim(strings.TrimSpace(cols[1]), "`")] = strings.TrimSpace(cols[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadmeMetricsCatalogue: the README's metrics table lists exactly
// the families a fresh broker with a state store, admission control
// and the SLO reconciler exposes, plus those registered outside the
// server, each with its exposition type.
func TestReadmeMetricsCatalogue(t *testing.T) {
	srv := broker.NewServer(broker.DefaultLinkPenalty,
		broker.WithStateStore(store.NewMemory()),
		broker.WithAdmission(broker.AdmissionConfig{MaxInFlight: 4, MaxQueue: 4}),
		broker.WithSLO(broker.SLOConfig{}),
	)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", rec.Code)
	}
	want := map[string]string{}
	for k, v := range registeredOutsideServer {
		want[k] = v
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			want[f[2]] = f[3]
		}
	}
	got := readmeMetrics(t)
	var diffs []string
	for name, typ := range want {
		if got[name] != typ {
			diffs = append(diffs, fmt.Sprintf("%s: exposed as %s, README has %q", name, typ, got[name]))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: in the README, but nothing exposes it", name))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
}
