package sccp

import (
	"testing"

	"softsoa/internal/obs/journal"
)

// tellRetractChain builds an agent performing n tell/retract pairs —
// 2n transitions — ending in success.
func tellRetractChain(n int) (Agent[float64], *Machine[float64], func(...MachineOption[float64]) *Machine[float64]) {
	s, cs := negotiationSpace()
	var a Agent[float64] = Success[float64]{}
	for i := 0; i < n; i++ {
		a = Tell[float64]{C: cs["c4"], Next: Retract[float64]{C: cs["c4"], Next: a}}
	}
	mk := func(opts ...MachineOption[float64]) *Machine[float64] {
		return NewMachine(s, a, opts...)
	}
	return a, mk(), mk
}

// TestTraceRingBoundsMemory: the bounded trace keeps only the most
// recent transitions, counts the overwritten ones, and Steps() keeps
// the true total.
func TestTraceRingBoundsMemory(t *testing.T) {
	_, _, mk := tellRetractChain(10)
	m := mk(WithTraceCapacity[float64](5))
	if status, err := m.Run(100); err != nil || status != Succeeded {
		t.Fatalf("run: %v %v", status, err)
	}
	if m.Steps() != 20 {
		t.Errorf("Steps() = %d, want 20", m.Steps())
	}
	tr := m.Trace()
	if len(tr) != 5 {
		t.Fatalf("trace length = %d, want 5", len(tr))
	}
	if m.TraceDropped() != 15 {
		t.Errorf("TraceDropped() = %d, want 15", m.TraceDropped())
	}
	// Oldest first: the retained window is steps 16..20.
	for k, ev := range tr {
		if want := 16 + k; ev.Step != want {
			t.Errorf("trace[%d].Step = %d, want %d", k, ev.Step, want)
		}
	}
}

// TestTraceCapacityClamped: capacities below 1 clamp to a one-slot
// ring rather than panicking or growing unbounded.
func TestTraceCapacityClamped(t *testing.T) {
	_, _, mk := tellRetractChain(3)
	m := mk(WithTraceCapacity[float64](0))
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 1 || tr[0].Step != 6 {
		t.Fatalf("trace = %+v, want only step 6", tr)
	}
	if m.TraceDropped() != 5 {
		t.Errorf("TraceDropped() = %d, want 5", m.TraceDropped())
	}
}

// TestUnboundedTraceKeepsCompleteHistory: the opt-in restores the
// grow-forever trace used by history-asserting callers.
func TestUnboundedTraceKeepsCompleteHistory(t *testing.T) {
	_, _, mk := tellRetractChain(10)
	m := mk(WithUnboundedTrace[float64]())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(m.Trace()) != 20 || m.TraceDropped() != 0 {
		t.Errorf("trace length = %d dropped = %d, want 20 / 0", len(m.Trace()), m.TraceDropped())
	}
}

// recSink collects transition records for assertions.
type recSink struct{ recs []journal.Transition }

func (r *recSink) RecordTransition(tr journal.Transition) { r.recs = append(r.recs, tr) }

// TestRecorderSeesEveryTransition: the recorder stream is complete
// even when the machine's own trace ring wraps — journalling does not
// depend on trace capacity.
func TestRecorderSeesEveryTransition(t *testing.T) {
	_, _, mk := tellRetractChain(10)
	sink := &recSink{}
	m := mk(WithTraceCapacity[float64](2), WithRecorder(sink))
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 20 {
		t.Fatalf("recorder saw %d transitions, want 20", len(sink.recs))
	}
	if len(m.Trace()) != 2 || m.TraceDropped() != 18 {
		t.Errorf("trace length = %d dropped = %d, want 2 / 18", len(m.Trace()), m.TraceDropped())
	}
	for k, rec := range sink.recs {
		if rec.Step != k+1 {
			t.Fatalf("record %d has step %d, want %d", k, rec.Step, k+1)
		}
		want := "R1 Tell"
		if k%2 == 1 {
			want = "R7 Retract"
		}
		if rec.Rule != want {
			t.Errorf("record %d rule = %q, want %q", k, rec.Rule, want)
		}
	}
	// BlevelBefore of each record equals BlevelAfter of the previous.
	for k := 1; k < len(sink.recs); k++ {
		if sink.recs[k].BlevelBefore != sink.recs[k-1].BlevelAfter {
			t.Errorf("record %d blevel_before %g != previous blevel_after %g",
				k, sink.recs[k].BlevelBefore, sink.recs[k-1].BlevelAfter)
		}
	}
}
