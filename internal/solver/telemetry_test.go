package solver

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"softsoa/internal/obs/journal"
	"softsoa/internal/semiring"
	"softsoa/internal/workload"
)

// searchSink collects solver telemetry for assertions.
type searchSink struct{ recs []journal.Search }

func (s *searchSink) RecordSearch(r journal.Search) { s.recs = append(s.recs, r) }

func (s *searchSink) count(kind journal.SearchKind) int {
	n := 0
	for _, r := range s.recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// TestTelemetryStride: with stride 1 every node expansion is
// recorded; with stride k exactly every k-th one is, and incumbent
// improvements are never sampled away.
func TestTelemetryStride(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 6, DomainSize: 3, Density: 0.5, Tightness: 0.8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	full := &searchSink{}
	res := BranchAndBound(p, WithTelemetry(full, 1))
	if got := int64(full.count(journal.Expand)); got != res.Stats.Nodes {
		t.Errorf("stride 1 recorded %d expansions, search visited %d nodes", got, res.Stats.Nodes)
	}
	if full.count(journal.Incumbent) == 0 {
		t.Error("no incumbent improvements recorded")
	}

	sampled := &searchSink{}
	res4 := BranchAndBound(p, WithTelemetry(sampled, 4))
	if got, want := int64(sampled.count(journal.Expand)), res4.Stats.Nodes/4; got != want {
		t.Errorf("stride 4 recorded %d expansions, want %d", got, want)
	}
	if got, want := sampled.count(journal.Incumbent), full.count(journal.Incumbent); got != want {
		t.Errorf("stride 4 recorded %d incumbents, stride 1 recorded %d — improvements must not be sampled", got, want)
	}
}

// TestTelemetryDoesNotChangeSearch: recording is observational — the
// result with telemetry on equals the result with it off.
func TestTelemetryDoesNotChangeSearch(t *testing.T) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 7, DomainSize: 3, Density: 0.6, Tightness: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := BranchAndBound(p)
	sink := &searchSink{}
	got := BranchAndBound(p, WithTelemetry(sink, 2))
	assertSameResult(t, p.Space().Semiring(), "telemetry", want, got)
	if got.Stats.Nodes != want.Stats.Nodes || got.Stats.Prunes != want.Stats.Prunes {
		t.Errorf("telemetry changed the search: nodes %d/%d prunes %d/%d",
			got.Stats.Nodes, want.Stats.Nodes, got.Stats.Prunes, want.Stats.Prunes)
	}
	if len(sink.recs) == 0 {
		t.Error("telemetry recorded nothing")
	}
}

// TestTelemetryClampsStride: a stride below 1 behaves as 1 instead of
// dividing by zero.
func TestTelemetryClampsStride(t *testing.T) {
	p, err := workload.ChainWeightedSCSP(5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &searchSink{}
	res := BranchAndBound(p, WithTelemetry(sink, 0))
	if got := int64(sink.count(journal.Expand)); got != res.Stats.Nodes {
		t.Errorf("clamped stride recorded %d expansions, want %d", got, res.Stats.Nodes)
	}
}

// TestTelemetryFloatCarriersOnly: journals store float64 values, so
// a recorder on a search over another carrier is a misuse that panics
// instead of leaving the journal silently empty; without a recorder
// the same search solves.
func TestTelemetryFloatCarriersOnly(t *testing.T) {
	p, err := workload.RandomSCSP(workload.SCSPParams{
		Vars: 5, DomainSize: 3, Density: 0.5, Tightness: 0.5, Seed: 3,
	}, semiring.Classical{}, func(rng *rand.Rand) bool { return rng.Intn(3) > 0 })
	if err != nil {
		t.Fatal(err)
	}
	if res := BranchAndBound(p); res.Stats.Nodes == 0 {
		t.Fatal("the classical search expanded no nodes")
	}
	for _, workers := range []int{1, 2} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("workers=%d: telemetry on a classical search did not panic", workers)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "float64") {
					t.Errorf("workers=%d: panic %q does not name the float64 requirement", workers, msg)
				}
			}()
			BranchAndBound(p, WithTelemetry(&searchSink{}, 1), WithWorkers(workers))
		}()
	}
}
