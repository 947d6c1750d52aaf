// Package replay turns flight-recorder journals into evidence: it
// records nmsccp programs into journals (the write side behind
// cmd/softsoa-replay -record and the golden fixtures) and verifies
// existing journals by deterministically re-executing each segment's
// program — same source, same seed, same fuel — and comparing the
// resulting transitions rule by rule, then the final store and
// blevel. A journal captured from a live broker negotiation thereby
// becomes a regression test: if the engine's semantics drift, the
// replay disagrees.
package replay

import (
	"fmt"

	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
)

// Run is one recorded program execution.
type Run struct {
	// Journal holds the captured events.
	Journal *journal.Journal
	// Status is the machine's final status.
	Status sccp.Status
	// Machine is the machine after the run (final store, trace).
	Machine *sccp.Machine[float64]
}

// Record parses, compiles and executes src with the given scheduler
// seed and fuel, capturing every transition into a fresh journal of
// the given event capacity (< 1 selects journal.DefaultCapacity).
// Journals contain no timestamps, so recording the same program twice
// yields byte-identical WriteJSONL output.
func Record(meta journal.Meta, label, src string, seed int64, fuel, capacity int) (*Run, error) {
	c, err := sccp.ParseAndCompile(src)
	if err != nil {
		return nil, err
	}
	j := journal.New(capacity, meta)
	j.SetSemiring(c.Semiring)
	j.BeginSegment(journal.Segment{Label: label, Program: src, Seed: seed, Fuel: fuel})
	m := c.NewMachine(sccp.WithSeed[float64](seed), sccp.WithRecorder(j))
	status, err := m.Run(fuel)
	if err != nil {
		return nil, err
	}
	j.EndRun(status.String(), m.Store().Constraint(), m.Store().Blevel())
	return &Run{Journal: j, Status: status, Machine: m}, nil
}

// SegmentResult is the verification outcome for one segment.
type SegmentResult struct {
	// Label is the segment's label.
	Label string
	// Replayable reports whether the segment carried a program to
	// re-execute (prechecked or skipped segments do not).
	Replayable bool
	// Events is the number of recorded transitions compared.
	Events int
	// Mismatches lists human-readable disagreements between the
	// recording and the replay; empty means exact agreement.
	Mismatches []string
}

// OK reports whether the segment verified (or was not replayable).
func (s SegmentResult) OK() bool { return len(s.Mismatches) == 0 }

// Report is the verification outcome for a whole journal.
type Report struct {
	Meta     journal.Meta
	Segments []SegmentResult
	// Dropped is the journal's drop count; a journal that lost events
	// can no longer be fully verified.
	Dropped int64
}

// OK reports whether every segment verified.
func (r *Report) OK() bool {
	for _, s := range r.Segments {
		if !s.OK() {
			return false
		}
	}
	return true
}

// collector captures replayed transitions for comparison, rendered
// by the replayed program's semiring.
type collector struct {
	format func(float64) string
	recs   []journal.TransitionRecord
}

func (c *collector) RecordTransition(t journal.Transition) {
	c.recs = append(c.recs, t.Render(c.format))
}

// Verify re-executes every replayable segment of the journal and
// compares the replayed transitions, final store and final blevel
// against the recording. The error return is reserved for journals
// that cannot be processed at all (no segments); semantic
// disagreements land in the report's mismatches.
func Verify(j *journal.Journal) (*Report, error) {
	segments := j.Segments()
	if len(segments) == 0 {
		return nil, fmt.Errorf("replay: journal has no segments")
	}
	events := j.Events()
	rep := &Report{Meta: j.Meta(), Dropped: j.Dropped()}
	for i, seg := range segments {
		var recorded []journal.TransitionRecord
		for _, ev := range events {
			if ev.Seg == i && ev.Kind == "transition" && ev.Transition != nil {
				recorded = append(recorded, *ev.Transition)
			}
		}
		rep.Segments = append(rep.Segments, verifySegment(seg, recorded))
	}
	return rep, nil
}

func verifySegment(seg journal.Segment, recorded []journal.TransitionRecord) SegmentResult {
	res := SegmentResult{Label: seg.Label, Events: len(recorded)}
	if seg.Program == "" {
		return res
	}
	res.Replayable = true
	mismatch := func(format string, args ...any) {
		res.Mismatches = append(res.Mismatches, fmt.Sprintf(format, args...))
	}
	// Each live machine numbers its transitions from 1; a recording
	// whose first retained step is later lost its prefix to the ring
	// and can no longer be verified positionally.
	if len(recorded) > 0 && recorded[0].Step != 1 {
		mismatch("recording starts at step %d: earlier events were dropped", recorded[0].Step)
		return res
	}

	c, err := sccp.ParseAndCompile(seg.Program)
	if err != nil {
		mismatch("program does not compile: %v", err)
		return res
	}
	col := &collector{format: c.Semiring.Format}
	m := c.NewMachine(sccp.WithSeed[float64](seg.Seed), sccp.WithRecorder(col))
	fuel := seg.Fuel
	if fuel <= 0 {
		fuel = 10000
	}
	status, err := m.Run(fuel)
	if err != nil {
		mismatch("replay run failed: %v", err)
		return res
	}
	// Skip the setup prefix that reconstructs pre-existing store state
	// (renegotiation segments replay onto a store built earlier).
	if len(col.recs) < seg.Setup {
		mismatch("replay produced %d transitions, fewer than the %d setup transitions", len(col.recs), seg.Setup)
		return res
	}
	replayed := col.recs[seg.Setup:]
	if len(replayed) != len(recorded) {
		mismatch("replay produced %d transitions, recording has %d", len(replayed), len(recorded))
	}
	n := min(len(replayed), len(recorded))
	for k := 0; k < n; k++ {
		want, got := recorded[k], replayed[k]
		// The live machine numbered from 1 without the setup prefix.
		if got.Step != want.Step+seg.Setup {
			mismatch("step %d: replay step %d (setup %d)", want.Step, got.Step, seg.Setup)
		}
		if got.Rule != want.Rule {
			mismatch("step %d: rule %q, recording has %q", want.Step, got.Rule, want.Rule)
		}
		if got.Agent != want.Agent {
			mismatch("step %d: agent %q, recording has %q", want.Step, got.Agent, want.Agent)
		}
		if got.Delta != want.Delta {
			mismatch("step %d: delta %q, recording has %q", want.Step, got.Delta, want.Delta)
		}
		if got.Check != want.Check {
			mismatch("step %d: check %q, recording has %q", want.Step, got.Check, want.Check)
		}
		if got.BlevelAfter != want.BlevelAfter {
			mismatch("step %d: blevel %s, recording has %s", want.Step, got.BlevelAfter, want.BlevelAfter)
		}
		if k > 0 && got.BlevelBefore != want.BlevelBefore {
			mismatch("step %d: blevel-before %s, recording has %s", want.Step, got.BlevelBefore, want.BlevelBefore)
		}
		if got.Consistent != want.Consistent {
			mismatch("step %d: consistent=%v, recording has %v", want.Step, got.Consistent, want.Consistent)
		}
		if got.Cut != want.Cut {
			mismatch("step %d: cut=%v, recording has %v", want.Step, got.Cut, want.Cut)
		}
	}
	if seg.Status != "" && status.String() != seg.Status {
		mismatch("final status %q, recording has %q", status.String(), seg.Status)
	}
	if seg.FinalStore != "" {
		if got := m.Store().Constraint().String(); got != seg.FinalStore {
			mismatch("final store %s, recording has %s", got, seg.FinalStore)
		}
	}
	if seg.FinalBlevel != "" {
		if got := c.Semiring.Format(m.Store().Blevel()); got != seg.FinalBlevel {
			mismatch("final blevel %s, recording has %s", got, seg.FinalBlevel)
		}
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
