package journal

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// TransitionRecord is one applied nmsccp transition in wire form:
// every value rendered as text. A Journal builds it from a Transition
// when it is read.
type TransitionRecord struct {
	// Step is the 1-based transition index within the emitting
	// machine run (not the journal: a journal may hold several runs).
	Step int `json:"step"`
	// Rule names the applied rule, e.g. "R1 Tell" or
	// "R7 Retract (via R10 P-call)".
	Rule string `json:"rule"`
	// Agent is the acting sub-agent's printed form.
	Agent string `json:"agent"`
	// Delta is the canonical form of the constraint the action told,
	// retracted or updated with; empty for actions that only observe
	// the store (ask/nask) or for timed ticks.
	Delta string `json:"delta,omitempty"`
	// Check is the transition's threshold annotation (e.g.
	// "→[a1=4,a2=1]"); empty for unrestricted transitions.
	Check string `json:"check,omitempty"`
	// BlevelBefore and BlevelAfter are σ⇓∅ around the transition,
	// rendered by the journal's semiring format.
	BlevelBefore string `json:"blevel_before"`
	BlevelAfter  string `json:"blevel_after"`
	// Consistent reports whether the store stayed above the semiring
	// Zero after the transition (a Zero store satisfies nothing).
	Consistent bool `json:"consistent"`
	// Cut marks a transition that committed a nondeterministic sum
	// (rule R5 discarded the remaining branches).
	Cut bool `json:"cut,omitempty"`
}

// Transition is one applied nmsccp transition as the machine hands it
// over: the values themselves, not their text. Agent, Delta and
// Check must be immutable (agents and constraints are), since the
// journal renders them whenever it is read.
type Transition struct {
	Step int
	Rule string
	// Agent is the acting sub-agent.
	Agent fmt.Stringer
	// Delta is the told, retracted or updated constraint; nil when the
	// action only observed the store.
	Delta fmt.Stringer
	// Check is the threshold annotation; nil when unrestricted.
	Check fmt.Stringer
	// BlevelBefore and BlevelAfter are σ⇓∅ around the transition.
	BlevelBefore, BlevelAfter float64
	Consistent, Cut           bool
}

// Render returns the transition in wire form.
func (t Transition) Render(format func(float64) string) TransitionRecord {
	r := TransitionRecord{
		Step: t.Step, Rule: t.Rule,
		BlevelBefore: format(t.BlevelBefore),
		BlevelAfter:  format(t.BlevelAfter),
		Consistent:   t.Consistent,
		Cut:          t.Cut,
	}
	if t.Agent != nil {
		r.Agent = t.Agent.String()
	}
	if t.Delta != nil {
		r.Delta = t.Delta.String()
	}
	if t.Check != nil {
		r.Check = t.Check.String()
	}
	return r
}

// Recorder receives machine transitions. Implementations must be
// safe for use from a single machine goroutine; *Journal is safe for
// concurrent use across machines.
type Recorder interface {
	RecordTransition(Transition)
}

// SearchRecord is one solver event in wire form.
type SearchRecord struct {
	// Kind is "stage" or "propagate".
	Kind string `json:"kind"`
	// Node is a search node number. Only journals written by older
	// brokers carry it; it is kept so they read back unchanged.
	Node int64 `json:"node,omitempty"`
	// Depth is the number of stages bound at a stage event.
	Depth int `json:"depth,omitempty"`
	// Value carries the event's semiring value (a composition
	// prefix's level, a propagated c∅), rendered by the journal's
	// semiring format.
	Value string `json:"value,omitempty"`
	// Reason qualifies propagate verdicts ("viable", "doomed").
	Reason string `json:"reason,omitempty"`
}

// SearchKind enumerates solver events.
type SearchKind uint8

// The solver event kinds.
const (
	Stage SearchKind = iota
	Propagate
)

var searchKinds = [...]string{Stage: "stage", Propagate: "propagate"}

// String returns the kind's wire name.
func (k SearchKind) String() string {
	if int(k) < len(searchKinds) {
		return searchKinds[k]
	}
	return "SearchKind(" + strconv.Itoa(int(k)) + ")"
}

// SearchReason qualifies a propagate verdict.
type SearchReason uint8

// The reasons; NoReason renders as an absent field.
const (
	NoReason SearchReason = iota
	Viable
	Doomed
)

var searchReasons = [...]string{NoReason: "", Viable: "viable", Doomed: "doomed"}

// String returns the reason's wire name ("" for NoReason).
func (r SearchReason) String() string {
	if int(r) < len(searchReasons) {
		return searchReasons[r]
	}
	return "SearchReason(" + strconv.Itoa(int(r)) + ")"
}

// Search is one solver event as the solver hands it over:
// pointer-free, so a journal stores it by value and the solver
// formats nothing.
type Search struct {
	Kind   SearchKind
	Reason SearchReason
	Depth  int32
	// Value is the event's raw semiring value.
	Value float64
}

// Render returns the event in wire form.
func (s Search) Render(format func(float64) string) SearchRecord {
	return SearchRecord{
		Kind: s.Kind.String(), Depth: int(s.Depth),
		Value: format(s.Value), Reason: s.Reason.String(),
	}
}

// Meta identifies a journal.
type Meta struct {
	// ID is the broker's journal key (sla-N, neg-N, comp-N) or a
	// caller-chosen name for recorded programs.
	ID string `json:"id,omitempty"`
	// Trace is the obs trace id of the request that produced the
	// journal, correlating it with the span ring and request logs.
	Trace string `json:"trace,omitempty"`
	// Kind is "negotiation", "renegotiation", "composition" or "run".
	Kind string `json:"kind,omitempty"`
	// Semiring names the carrier ("weighted", "fuzzy", …).
	Semiring string `json:"semiring,omitempty"`
}

// Segment is one independently replayable unit inside a journal:
// a single machine run (one provider negotiation, one renegotiation,
// one recorded program) or one solver phase.
type Segment struct {
	// Label names the segment, e.g. "negotiate:providerX".
	Label string `json:"label"`
	// Program is the nmsccp surface syntax whose execution the
	// segment's transition events record; empty when the segment is
	// not replayable (e.g. a precheck that skipped the machine).
	Program string `json:"program,omitempty"`
	// Seed is the machine's scheduler seed.
	Seed int64 `json:"seed,omitempty"`
	// Fuel is the machine's step budget.
	Fuel int `json:"fuel,omitempty"`
	// Setup counts leading transitions of Program that reconstruct
	// pre-existing store state (renegotiations replay onto a store
	// built by earlier segments); a verifier executes them but only
	// compares events after them.
	Setup int `json:"setup,omitempty"`
	// Note carries free-form context (precheck verdicts, skip
	// reasons).
	Note string `json:"note,omitempty"`
	// Status is the machine's final status ("succeeded", "stuck", …).
	Status string `json:"status,omitempty"`
	// FinalStore is the canonical form of σ after the run.
	FinalStore string `json:"final_store,omitempty"`
	// FinalBlevel is σ⇓∅ after the run.
	FinalBlevel string `json:"final_blevel,omitempty"`
}

// Program synthesises a segment's replayable nmsccp source when the
// journal is read, from inputs captured when the segment was recorded.
// Concurrent readers may call Source at the same time.
type Program interface {
	// Source returns the program text and the number of its leading
	// setup transitions; an empty text withholds the program, and
	// withheld, appended to the segment's note, may say why.
	Source() (src string, setup int, withheld string)
}

// Run is a machine run recorded by its outcome alone: the recorder
// applied the run's effects without the machine, and the journal
// derives the transitions the machine records for it, and its final
// σ, when it is first read.
type Run interface {
	Program
	// Replay runs the machine on the captured inputs and returns the
	// transitions it records and its final σ. Concurrent readers may
	// call it at the same time; it runs the machine at most once.
	Replay() ([]Transition, fmt.Stringer)
}

// Event is one journal line: a transition or a solver record, tagged
// with the segment it belongs to and a journal-wide sequence number.
type Event struct {
	// Kind is "transition" or "solver".
	Kind string `json:"t"`
	// Seg indexes the segment the event belongs to.
	Seg int `json:"i"`
	// Seq is the 1-based journal-wide sequence number; it keeps
	// counting across drops, so gaps reveal where the ring wrapped.
	Seq int `json:"seq"`

	Transition *TransitionRecord `json:"tr,omitempty"`
	Search     *SearchRecord     `json:"solver,omitempty"`
}

// DefaultCapacity bounds a journal's event ring when the caller does
// not choose one.
const DefaultCapacity = 2048

// Carrier is what a journal needs of the semiring whose values it
// records: its name and how it renders a value.
type Carrier interface {
	Name() string
	Format(float64) string
}

// Journal is a bounded, concurrency-safe flight-recorder stream. It
// implements Recorder and takes solver events (RecordSearch), so one
// journal can capture a negotiation's machine runs and its solver
// phases.
//
// A journal keeps the values it is given — raw float64 levels,
// constraint references, captured program inputs — and renders text
// only when it is read (Events, Segments, WriteJSONL, WriteJSON).
// Solver events and a deferred run's transitions are pointer-free
// entries in the ring; recorded transitions keep their payload in a
// side ring of the same capacity.
type Journal struct {
	mu       sync.Mutex
	meta     Meta                 // guarded by mu
	format   func(float64) string // renders raw values; guarded by mu
	segments []segment            // guarded by mu
	current  int                  // index of the open segment; guarded by mu

	capacity int
	events   []entry          // ring storage; guarded by mu
	head     int              // next overwrite position once full; guarded by mu
	seq      int              // events ever recorded; guarded by mu
	dropped  int64            // events overwritten by the ring; guarded by mu
	trs      sideRing[trSlot] // transition payloads; guarded by mu
	lits     sideRing[Event]  // literal events read from JSONL; guarded by mu

	onDrop func(int64) // called outside hot paths but under mu
}

// segment is a Segment plus the values its deferred fields render
// from. The first read keeps the rendered Program, Setup, FinalStore
// and a deferred run's transitions, and drops the values (see keep).
type segment struct {
	Segment
	program  Program            // renders Program and Setup; nil once kept
	store    fmt.Stringer       // renders FinalStore; nil once kept
	run      Run                // derives FinalStore and trs; nil once kept
	trs      []TransitionRecord // the run's transitions, once rendered
	blevel   float64            // renders FinalBlevel when hasLevel
	hasLevel bool
}

// render returns the wire form. A deferred program adds its setup
// transitions to the recorded fuel, which budgets the live run only,
// and the reason it was withheld, if it was, to the note. A deferred
// run is replayed here, and its transitions rendered into s.trs.
func (s *segment) render(format func(float64) string) Segment {
	out := s.Segment
	if s.program != nil {
		var withheld string
		out.Program, out.Setup, withheld = s.program.Source()
		out.Fuel += out.Setup
		out.Note += withheld
	}
	if s.store != nil {
		out.FinalStore = s.store.String()
	}
	if s.run != nil {
		trs, final := s.run.Replay()
		out.FinalStore = final.String()
		s.trs = make([]TransitionRecord, len(trs))
		for i, t := range trs {
			s.trs[i] = t.Render(format)
		}
	}
	if s.hasLevel {
		out.FinalBlevel = format(s.blevel)
	}
	return out
}

// transition returns the i-th transition of the segment's deferred
// run as rendered. A run whose replay recorded fewer transitions than
// were reserved for it serves the missing ones as bare step numbers.
func (s *segment) transition(i int32) *TransitionRecord {
	if int(i) < len(s.trs) {
		return &s.trs[i]
	}
	return &TransitionRecord{Step: int(i) + 1}
}

// trSlot holds a transition entry's payload until the journal is
// first read, then its wire form (see keep).
type trSlot struct {
	seq int               // the entry's seq, telling a reused slot apart
	t   Transition        // the payload; zero once rec is kept
	rec *TransitionRecord // the kept wire form; nil until the first read
}

// entryKind says where an entry's payload lives.
type entryKind uint8

const (
	searchEntry     entryKind = iota // in the entry itself
	transitionEntry                  // j.trs[ref]
	literalEntry                     // j.lits[ref]
	runEntry                         // transition ref of j.segments[seg]'s run
)

// entry is one ring slot. It holds no pointers, so the ring of a
// composition journal — almost all solver events — costs the garbage
// collector nothing to scan.
type entry struct {
	seq  int
	seg  int32
	kind entryKind
	ref  int32
	s    Search
}

// sideRing stores the payloads that do not fit an entry. It wraps at
// the journal's capacity, so a payload outlives the entry that refers
// to it: an entry still in the event ring was pushed at most capacity
// events ago, hence at most capacity payloads ago.
type sideRing[T any] struct {
	buf  []T
	next int
}

func (r *sideRing[T]) put(v T, capacity int) int32 {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, v)
		return int32(len(r.buf) - 1)
	}
	i := r.next
	r.buf[i] = v
	r.next = (i + 1) % capacity
	return int32(i)
}

// New returns a journal with the given event capacity (values < 1
// select DefaultCapacity).
func New(capacity int, meta Meta) *Journal {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Journal{meta: meta, capacity: capacity, current: -1}
}

// Meta returns the journal's identity.
func (j *Journal) Meta() Meta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta
}

// SetID names the journal after its identity is known (the broker
// only mints sla-N once a negotiation succeeds).
func (j *Journal) SetID(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.meta.ID = id
}

// SetSemiring records the journal's carrier: its name in the meta,
// and its Format as the renderer of every raw value.
func (j *Journal) SetSemiring(c Carrier) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.meta.Semiring = c.Name()
	j.format = c.Format
}

// SetFormat installs the renderer of raw values without naming the
// carrier in the meta. A journal without one renders values in
// strconv's shortest 'g' form.
func (j *Journal) SetFormat(format func(float64) string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.format = format
}

// SetOnDrop installs a hook invoked with the number of events dropped
// whenever the ring overwrites or AddDropped reports machine-side
// drops. Used by the broker to feed journal_events_dropped_total.
func (j *Journal) SetOnDrop(fn func(int64)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onDrop = fn
}

// BeginSegment opens a new segment and returns its index. Events
// recorded afterwards belong to it.
func (j *Journal) BeginSegment(seg Segment) int {
	return j.begin(segment{Segment: seg})
}

// BeginRun opens a segment for a machine run whose program prog
// synthesises when the journal is read. seg.Fuel budgets the live
// run; the rendered Fuel adds the program's setup transitions, which
// a replay executes first.
func (j *Journal) BeginRun(seg Segment, prog Program) int {
	return j.begin(segment{Segment: seg, program: prog})
}

func (j *Journal) begin(seg segment) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.segments = append(j.segments, seg)
	j.current = len(j.segments) - 1
	return j.current
}

// NoteSegment annotates the open segment.
func (j *Journal) NoteSegment(note string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.current >= 0 {
		j.segments[j.current].Note = note
	}
}

// EndSegment closes the open segment with its outcome, as text.
func (j *Journal) EndSegment(status, finalStore, finalBlevel string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.current < 0 {
		return
	}
	s := &j.segments[j.current]
	s.Status, s.FinalStore, s.FinalBlevel = status, finalStore, finalBlevel
}

// EndRun closes the open segment with a machine run's outcome: its
// status, σ (immutable, rendered when the journal is read) and σ⇓∅.
func (j *Journal) EndRun(status string, store fmt.Stringer, blevel float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.current < 0 {
		return
	}
	s := &j.segments[j.current]
	s.Status, s.store, s.blevel, s.hasLevel = status, store, blevel, true
}

// EndDeferredRun closes the open segment, which BeginRun opened with
// run as its program, with the outcome of a run whose effects the
// caller applied without the machine: its status, σ⇓∅ and the number
// of transitions the machine records for it. Those transitions are
// reserved now as pointer-free events, so sequence numbers, ring wrap
// and drop accounting are those of a recorded run; the first read
// derives them and the final σ from run.Replay.
func (j *Journal) EndDeferredRun(run Run, status string, transitions int, blevel float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.current < 0 {
		return
	}
	s := &j.segments[j.current]
	s.Status, s.run, s.blevel, s.hasLevel = status, run, blevel, true
	for i := 0; i < transitions; i++ {
		j.push(entry{kind: runEntry, ref: int32(i)})
	}
}

// Segments renders the segments recorded so far.
func (j *Journal) Segments() []Segment {
	snap := j.snapshot()
	segments := snap.renderSegments()
	j.keep(snap, segments)
	return segments
}

// RecordTransition implements Recorder.
func (j *Journal) RecordTransition(t Transition) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// push numbers this event j.seq+1.
	ref := j.trs.put(trSlot{seq: j.seq + 1, t: t}, j.capacity)
	j.push(entry{kind: transitionEntry, ref: ref})
}

// RecordSearch records one solver event.
func (j *Journal) RecordSearch(s Search) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.push(entry{kind: searchEntry, s: s})
}

// push numbers an event, tags it with the open segment and stores it.
// Callers hold j.mu.
func (j *Journal) push(e entry) {
	j.seq++
	e.seq, e.seg = j.seq, int32(j.current)
	if j.store(e) {
		j.dropped++
		if j.onDrop != nil {
			j.onDrop(1)
		}
	}
}

// store appends an entry to the ring and reports whether it
// overwrote the oldest one. Callers hold j.mu.
func (j *Journal) store(e entry) bool {
	if len(j.events) < j.capacity {
		j.events = append(j.events, e)
		return false
	}
	j.events[j.head] = e
	j.head = (j.head + 1) % j.capacity
	return true
}

// AddDropped accounts for events dropped before they reached the
// journal (e.g. a machine's own trace ring wrapping).
func (j *Journal) AddDropped(n int64) {
	if n <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropped += n
	if j.onDrop != nil {
		j.onDrop(n)
	}
}

// Capacity returns the event ring's bound.
func (j *Journal) Capacity() int {
	return j.capacity
}

// Dropped returns how many events were lost to capacity bounds.
func (j *Journal) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events renders the retained events, oldest first. Transition
// records point at the text the journal keeps: changing one changes
// what the journal serves.
func (j *Journal) Events() []Event {
	_, _, events := j.render()
	return events
}

// render snapshots the journal, renders the snapshot outside the lock
// and keeps what it rendered.
func (j *Journal) render() (snapshot, []Segment, []Event) {
	snap := j.snapshot()
	segments, events := snap.renderSegments(), snap.renderEvents()
	j.keep(snap, segments)
	return snap, segments, events
}

// keep replaces deferred values with the text a read rendered from
// them: a segment's program, final σ and deferred run, a transition's
// payload. A
// sink rewrites an SLA's journal after every renegotiation (brokerd
// -journal-dir, on the request goroutine), so each value must be
// rendered — each program proved — once, not once per dump; the text
// also releases the constraints and captured inputs it came from.
// Values that changed hands meanwhile are left alone: a transition
// slot a newer payload took, a store that is no longer deferred.
func (j *Journal) keep(snap snapshot, segments []Segment) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range snap.segments {
		sn, s, out := &snap.segments[i], &j.segments[i], &segments[i]
		if sn.program != nil && s.program != nil {
			s.Program, s.Setup, s.Fuel, s.Note, s.program = out.Program, out.Setup, out.Fuel, out.Note, nil
		}
		if sn.store != nil && s.store != nil {
			s.FinalStore, s.store = out.FinalStore, nil
		}
		if sn.run != nil && s.run != nil {
			s.FinalStore, s.trs, s.run = out.FinalStore, sn.trs, nil
		}
	}
	for _, st := range snap.trs {
		if sl := &j.trs.buf[st.ref]; st.rec != nil && sl.seq == st.seq && sl.rec == nil {
			sl.t, sl.rec = Transition{}, st.rec
		}
	}
}

// snapshot is a journal copied out under its lock, to be rendered
// after the lock is released: recorders never wait on a reader's
// formatting.
type snapshot struct {
	meta     Meta
	format   func(float64) string
	capacity int
	dropped  int64
	segments []segment
	events   []entry
	trs      []snapTransition // the transition entries, in order
	fresh    []Transition     // payloads of the trs without kept text
	lits     []Event          // payloads of the literal entries, in order
}

func (j *Journal) snapshot() snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := snapshot{
		meta:     j.meta,
		format:   j.format,
		capacity: j.capacity,
		dropped:  j.dropped,
		segments: append([]segment(nil), j.segments...),
		events:   make([]entry, 0, len(j.events)),
		trs:      make([]snapTransition, 0, len(j.trs.buf)),
	}
	if s.format == nil {
		s.format = formatG
	}
	s.events = append(s.events, j.events[j.head:]...)
	s.events = append(s.events, j.events[:j.head]...)
	for _, e := range s.events {
		switch e.kind {
		case transitionEntry:
			sl := &j.trs.buf[e.ref]
			if sl.rec == nil {
				s.fresh = append(s.fresh, sl.t)
			}
			s.trs = append(s.trs, snapTransition{rec: sl.rec, ref: e.ref, seq: e.seq})
		case literalEntry:
			s.lits = append(s.lits, j.lits.buf[e.ref])
		}
	}
	return s
}

// snapTransition is a transition entry in a snapshot: the text an
// earlier read kept or, when rec is nil, the next payload in
// snapshot.fresh to render.
type snapTransition struct {
	rec *TransitionRecord
	ref int32
	seq int
}

// formatG renders a value for a journal without a carrier format.
func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderSegments renders the segments, and with them the transitions
// of their deferred runs, which renderEvents serves.
func (s snapshot) renderSegments() []Segment {
	out := make([]Segment, len(s.segments))
	for i := range s.segments {
		out[i] = s.segments[i].render(s.format)
	}
	return out
}

func (s snapshot) renderEvents() []Event {
	out := make([]Event, 0, len(s.events))
	trs, fresh, lits := s.trs, s.fresh, s.lits
	for _, e := range s.events {
		ev := Event{Seg: int(e.seg), Seq: e.seq}
		switch e.kind {
		case searchEntry:
			r := e.s.Render(s.format)
			ev.Kind, ev.Search = "solver", &r
		case transitionEntry:
			st := &trs[0]
			trs = trs[1:]
			if st.rec == nil {
				r := fresh[0].Render(s.format)
				fresh = fresh[1:]
				st.rec = &r
			}
			ev.Kind, ev.Transition = "transition", st.rec
		case literalEntry:
			ev, lits = lits[0], lits[1:]
		case runEntry:
			ev.Kind, ev.Transition = "transition", s.segments[e.seg].transition(e.ref)
		}
		out = append(out, ev)
	}
	return out
}

// JSONL line wrappers. Every line is a JSON object whose "t" field
// discriminates: "journal" (header), "segment", "transition"/"solver"
// (events), "end" (trailer with drop accounting). The stream contains
// no timestamps, so identical runs serialise to identical bytes.

type headerLine struct {
	T string `json:"t"`
	V int    `json:"v"`
	Meta
	Capacity int `json:"capacity"`
}

type segmentLine struct {
	T string `json:"t"`
	I int    `json:"i"`
	Segment
}

type endLine struct {
	T       string `json:"t"`
	Events  int    `json:"events"`
	Dropped int64  `json:"dropped"`
}

// WriteJSONL serialises the journal: header, then each segment line
// followed by its events, then the trailer.
func (j *Journal) WriteJSONL(w io.Writer) error {
	snap, segments, events := j.render()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{T: "journal", V: 1, Meta: snap.meta, Capacity: snap.capacity}); err != nil {
		return err
	}
	for i, seg := range segments {
		if err := enc.Encode(segmentLine{T: "segment", I: i, Segment: seg}); err != nil {
			return err
		}
		for _, ev := range events {
			if ev.Seg != i {
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	if err := enc.Encode(endLine{T: "end", Events: len(events), Dropped: snap.dropped}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSONL reconstructs a journal from its JSONL serialisation. The
// result carries the literal text it read.
func ReadJSONL(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var j *Journal
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
		}
		if probe.T == "journal" {
			var h headerLine
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
			}
			j = New(h.Capacity, h.Meta)
			continue
		}
		if j == nil {
			return nil, fmt.Errorf("journal: line %d: %q before journal header", lineNo, probe.T)
		}
		switch probe.T {
		case "segment":
			var s segmentLine
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
			}
			j.BeginSegment(s.Segment)
		case "transition", "solver":
			var ev Event
			if err := json.Unmarshal(raw, &ev); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
			}
			j.mu.Lock()
			// Replay the recorded seq/seg verbatim instead of reassigning.
			j.store(entry{seq: ev.Seq, seg: int32(ev.Seg), kind: literalEntry, ref: j.lits.put(ev, j.capacity)})
			if ev.Seq > j.seq {
				j.seq = ev.Seq
			}
			j.mu.Unlock()
		case "end":
			var e endLine
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
			}
			j.mu.Lock()
			j.dropped = e.Dropped
			j.mu.Unlock()
		default:
			return nil, fmt.Errorf("journal: line %d: unknown line type %q", lineNo, probe.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if j == nil {
		return nil, fmt.Errorf("journal: no header line")
	}
	return j, nil
}

// Document is the journal's single-object JSON form, served by the
// broker's GET /v1/negotiations/{id}/journal endpoint.
type Document struct {
	Journal  Meta      `json:"journal"`
	Segments []Segment `json:"segments"`
	Events   []Event   `json:"events"`
	Dropped  int64     `json:"dropped"`
}

// WriteJSON serialises the journal as one JSON document.
func (j *Journal) WriteJSON(w io.Writer) error {
	snap, segments, events := j.render()
	doc := Document{
		Journal:  snap.meta,
		Segments: segments,
		Events:   events,
		Dropped:  snap.dropped,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ctxKey keys the journal in a context.
type ctxKey struct{}

// ContextWith attaches the journal to the context.
func ContextWith(ctx context.Context, j *Journal) context.Context {
	return context.WithValue(ctx, ctxKey{}, j)
}

// FromContext returns the context's journal, or nil when the request
// is not being recorded. A nil *Journal is not a usable recorder;
// callers gate on the nil check.
func FromContext(ctx context.Context) *Journal {
	j, _ := ctx.Value(ctxKey{}).(*Journal)
	return j
}
