package journal

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func tr(step int, rule string) Transition {
	return Transition{Step: step, Rule: rule, Consistent: true}
}

// text is literal text standing in for a deferred value.
type text string

func (t text) String() string { return string(t) }

// program is a fixed journal program.
type program struct {
	src   string
	setup int
}

func (p program) Source() (string, int, string) { return p.src, p.setup, "" }

// carrier renders values with two decimals and counts the calls.
type carrier struct{ calls *int }

func (carrier) Name() string { return "test" }

func (c carrier) Format(v float64) string {
	*c.calls++
	return fmt.Sprintf("%.2f", v)
}

// TestRingDropAccounting: a full ring overwrites oldest-first, counts
// every loss, keeps Seq continuous, and reports through onDrop.
func TestRingDropAccounting(t *testing.T) {
	j := New(3, Meta{ID: "ring"})
	var notified int64
	j.SetOnDrop(func(n int64) { notified += n })
	j.BeginSegment(Segment{Label: "s"})

	for i := 1; i <= 5; i++ {
		j.RecordTransition(tr(i, "R1 Tell"))
	}

	if got := j.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if notified != 2 {
		t.Errorf("onDrop saw %d, want 2", notified)
	}
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("ring retained %d events, want 3", len(evs))
	}
	// Oldest first, with journal-wide sequence numbers surviving the wrap.
	for k, ev := range evs {
		if want := k + 3; ev.Seq != want || ev.Transition.Step != want {
			t.Errorf("event %d: seq=%d step=%d, want %d", k, ev.Seq, ev.Transition.Step, want)
		}
	}
}

// TestAddDropped: machine-side losses reach both the counter and the
// hook without touching the ring.
func TestAddDropped(t *testing.T) {
	j := New(4, Meta{})
	var notified int64
	j.SetOnDrop(func(n int64) { notified += n })
	j.AddDropped(0)
	j.AddDropped(-3)
	j.AddDropped(7)
	if got := j.Dropped(); got != 7 {
		t.Errorf("Dropped() = %d, want 7", got)
	}
	if notified != 7 {
		t.Errorf("onDrop saw %d, want 7", notified)
	}
	if len(j.Events()) != 0 {
		t.Error("AddDropped must not synthesise events")
	}
}

// TestSegments: events are tagged with the open segment, and
// EndSegment records the outcome on the right one.
func TestSegments(t *testing.T) {
	j := New(0, Meta{ID: "segs", Kind: "test"})
	if j.Capacity() != DefaultCapacity {
		t.Errorf("Capacity() = %d, want DefaultCapacity", j.Capacity())
	}

	a := j.BeginSegment(Segment{Label: "a"})
	j.RecordTransition(tr(1, "R1 Tell"))
	j.EndSegment("succeeded", "c", "2")

	b := j.BeginSegment(Segment{Label: "b"})
	j.NoteSegment("second run")
	j.RecordSearch(Search{Kind: Stage, Depth: 1})
	j.EndSegment("stuck", "", "")

	if a != 0 || b != 1 {
		t.Fatalf("segment indices = %d, %d", a, b)
	}
	segs := j.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d segments", len(segs))
	}
	if segs[0].Status != "succeeded" || segs[0].FinalBlevel != "2" {
		t.Errorf("segment a = %+v", segs[0])
	}
	if segs[1].Note != "second run" || segs[1].Status != "stuck" {
		t.Errorf("segment b = %+v", segs[1])
	}
	evs := j.Events()
	if len(evs) != 2 || evs[0].Seg != 0 || evs[1].Seg != 1 {
		t.Errorf("event segment tags wrong: %+v", evs)
	}
	if evs[0].Kind != "transition" || evs[1].Kind != "solver" {
		t.Errorf("event kinds = %q, %q", evs[0].Kind, evs[1].Kind)
	}
}

// TestJSONLRoundTrip: write → read → write is byte-identical, and the
// reconstruction preserves meta, segments, events and drop counts.
func TestJSONLRoundTrip(t *testing.T) {
	j := New(8, Meta{ID: "rt", Kind: "negotiation", Trace: "abc123"})
	j.SetSemiring(carrier{calls: new(int)})
	j.BeginRun(Segment{Label: "negotiate:p1", Seed: 1, Fuel: 200}, program{src: "main :: success."})
	j.RecordTransition(Transition{
		Step: 1, Rule: "R1 Tell", Agent: text("tell(c)→ success"),
		Delta: text("c(x){⟨0⟩→0}"), BlevelAfter: 2, Consistent: true,
	})
	j.RecordSearch(Search{Kind: Stage, Depth: 4, Value: 2.5})
	j.EndRun("succeeded", text("c(x){⟨0⟩→0}"), 2)
	j.AddDropped(3)

	var out bytes.Buffer
	if err := j.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	j2, err := ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if j2.Meta() != j.Meta() {
		t.Errorf("meta = %+v, want %+v", j2.Meta(), j.Meta())
	}
	if j2.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", j2.Dropped())
	}
	if len(j2.Events()) != 2 || len(j2.Segments()) != 1 {
		t.Fatalf("reconstructed %d events / %d segments", len(j2.Events()), len(j2.Segments()))
	}
	var out2 bytes.Buffer
	if err := j2.WriteJSONL(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("JSONL round trip is not byte-identical")
	}
}

// TestReadJSONLErrors: malformed streams fail with positioned errors
// instead of yielding half-built journals.
func TestReadJSONLErrors(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"empty", "", "no header line"},
		{"event before header", `{"t":"transition","i":0,"seq":1}`, "before journal header"},
		{"unknown type", "{\"t\":\"journal\",\"v\":1}\n{\"t\":\"bogus\"}", "unknown line type"},
		{"bad json", "{\"t\":\"journal\",\"v\":1}\nnot json", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(c.input))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestDeferredRendering: a journal formats nothing while it records;
// reading renders the raw values through the carrier's Format, the
// deferred program (its setup added to the fuel) and the final store.
func TestDeferredRendering(t *testing.T) {
	calls := 0
	j := New(8, Meta{ID: "d"})
	j.SetSemiring(carrier{calls: &calls})
	j.BeginRun(Segment{Label: "renegotiate:p", Seed: 1, Fuel: 50}, program{src: "main :: success.", setup: 4})
	j.RecordTransition(Transition{Step: 1, Rule: "R7 Retract", Delta: text("c"), Check: text("→[a1=4]"), BlevelBefore: 1, BlevelAfter: 0.5})
	j.RecordSearch(Search{Kind: Propagate, Reason: Doomed, Value: 1.25})
	j.EndRun("succeeded", text("σ"), 0.5)
	if calls != 0 {
		t.Fatalf("recording formatted %d values", calls)
	}
	if meta := j.Meta(); meta.Semiring != "test" {
		t.Errorf("meta semiring = %q, want test", meta.Semiring)
	}

	seg := j.Segments()[0]
	want := Segment{Label: "renegotiate:p", Program: "main :: success.", Seed: 1, Fuel: 54, Setup: 4,
		Status: "succeeded", FinalStore: "σ", FinalBlevel: "0.50"}
	if seg != want {
		t.Errorf("segment = %+v, want %+v", seg, want)
	}
	evs := j.Events()
	if got, want := *evs[0].Transition, (TransitionRecord{Step: 1, Rule: "R7 Retract", Delta: "c",
		Check: "→[a1=4]", BlevelBefore: "1.00", BlevelAfter: "0.50"}); got != want {
		t.Errorf("transition = %+v, want %+v", got, want)
	}
	if got, want := *evs[1].Search, (SearchRecord{Kind: "propagate", Value: "1.25",
		Reason: "doomed"}); got != want {
		t.Errorf("search = %+v, want %+v", got, want)
	}
}

// counted renders text and counts its renderings.
type counted struct {
	s     string
	calls *int
}

func (c counted) String() string { *c.calls++; return c.s }

func (c counted) Source() (string, int, string) { *c.calls++; return c.s, 0, "" }

// TestReadRendersOnce: a sink rewrites a journal after every
// renegotiation, so a second read must not render again what the
// first one did — no program proved twice, no agent or constraint
// printed twice — and must serve the same bytes.
func TestReadRendersOnce(t *testing.T) {
	calls := 0
	j := New(8, Meta{ID: "once"})
	j.BeginRun(Segment{Label: "negotiate:p", Fuel: 10}, counted{"main :: success.", &calls})
	j.RecordTransition(Transition{Step: 1, Rule: "R1 Tell", Agent: counted{"tell(c)", &calls}, Delta: counted{"c", &calls}, Check: counted{"→", &calls}})
	j.EndRun("succeeded", counted{"σ", &calls}, 1)
	var first bytes.Buffer
	if err := j.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("first read rendered %d values, want 5", calls)
	}
	for i := 0; i < 3; i++ {
		var again bytes.Buffer
		if err := j.WriteJSONL(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("read %d served\n%s\nwant\n%s", i+2, again.String(), first.String())
		}
		j.Segments()
		j.Events()
	}
	if calls != 5 {
		t.Errorf("repeated reads rendered %d values in all, want 5", calls)
	}
}

// TestKeptTextAcrossWrap: text kept by earlier reads is never served
// for a later event that reuses its ring slot. A journal read after
// every event, and one read concurrently with its recording (run with
// -race), serve the same bytes as one read only at the end.
func TestKeptTextAcrossWrap(t *testing.T) {
	record := func(j *Journal, i int) {
		if i%3 == 0 {
			j.BeginRun(Segment{Label: fmt.Sprintf("s%d", i)}, program{src: fmt.Sprintf("p%d.", i)})
		}
		j.RecordTransition(Transition{Step: i, Rule: "R1 Tell", Delta: text(fmt.Sprintf("c%d", i)), BlevelAfter: float64(i)})
		if i%2 == 0 {
			j.RecordSearch(Search{Kind: Stage, Depth: int32(i), Value: float64(i)})
		}
		if i%3 == 2 {
			j.EndRun("succeeded", text(fmt.Sprintf("σ%d", i)), float64(i))
		}
	}
	read, fresh := New(4, Meta{ID: "w"}), New(4, Meta{ID: "w"})
	for i := 0; i < 20; i++ {
		record(read, i)
		record(fresh, i)
		if err := read.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	var got, want bytes.Buffer
	if err := read.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("journal read throughout serves\n%s\nwant\n%s", got.String(), want.String())
	}

	const n = 2000
	racing, fresh := New(4, Meta{ID: "r"}), New(4, Meta{ID: "r"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			record(racing, i)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			if err := racing.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		record(fresh, i)
	}
	got.Reset()
	want.Reset()
	if err := racing.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("journal read while recording serves\n%s\nwant\n%s", got.String(), want.String())
	}
}

// deferred is a Run whose replay hands back fixed transitions and σ,
// counting its calls.
type deferred struct {
	src     string
	trs     []Transition
	final   string
	replays *atomic.Int32
}

func (d deferred) Source() (string, int, string) { return d.src, 0, "" }

func (d deferred) Replay() ([]Transition, fmt.Stringer) {
	d.replays.Add(1)
	return d.trs, text(d.final)
}

// TestDeferredRunMatchesRecorded: a run closed with EndDeferredRun
// serves the bytes of the same run recorded transition by transition
// — sequence numbers, segment tags, drops across a wrapping ring — and
// its first read replays it once; later reads serve the kept text.
func TestDeferredRunMatchesRecorded(t *testing.T) {
	var replays atomic.Int32
	runs := make([]deferred, 5)
	for i := range runs {
		runs[i] = deferred{src: fmt.Sprintf("p%d.", i), final: fmt.Sprintf("σ%d", i), replays: &replays}
		for k := 1; k <= 3+i%3; k++ {
			runs[i].trs = append(runs[i].trs, Transition{Step: k, Rule: "R1 Tell", Agent: text(fmt.Sprintf("tell(c%d)", k)),
				Delta: text("c"), BlevelBefore: float64(k - 1), BlevelAfter: float64(k), Consistent: true})
		}
	}
	record := func(j *Journal, i int, live bool) {
		r := runs[i]
		j.BeginRun(Segment{Label: fmt.Sprintf("s%d", i), Seed: 1, Fuel: 10}, r)
		j.RecordSearch(Search{Kind: Propagate, Reason: Viable, Value: float64(i)})
		if !live {
			j.EndDeferredRun(r, "succeeded", len(r.trs), float64(i))
			return
		}
		for _, t := range r.trs {
			j.RecordTransition(t)
		}
		j.EndRun("succeeded", text(r.final), float64(i))
	}
	for _, capacity := range []int{64, 7} {
		var dropped int64
		live, def := New(capacity, Meta{ID: "d"}), New(capacity, Meta{ID: "d"})
		def.SetOnDrop(func(n int64) { dropped += n })
		for i := range runs {
			record(live, i, true)
			record(def, i, false)
		}
		if got := replays.Load(); got != 0 {
			t.Fatalf("capacity %d: recording replayed %d runs", capacity, got)
		}
		var want, got bytes.Buffer
		if err := live.WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		for read := 0; read < 3; read++ {
			got.Reset()
			if err := def.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("capacity %d, read %d: deferred journal serves\n%s\nwant\n%s", capacity, read+1, got.String(), want.String())
			}
		}
		if got := replays.Swap(0); got != int32(len(runs)) {
			t.Errorf("capacity %d: three reads replayed %d times, want once per run (%d)", capacity, got, len(runs))
		}
		if def.Dropped() != live.Dropped() || dropped != live.Dropped() {
			t.Errorf("capacity %d: dropped %d (hook %d), recorded journal %d", capacity, def.Dropped(), dropped, live.Dropped())
		}
	}
}

// TestDeferredRunConcurrentReads: readers racing for a deferred run's
// first rendering all serve the same bytes (run with -race).
func TestDeferredRunConcurrentReads(t *testing.T) {
	var replays atomic.Int32
	r := deferred{src: "p.", final: "σ", replays: &replays,
		trs: []Transition{{Step: 1, Rule: "R1 Tell", Delta: text("c"), BlevelAfter: 1}, {Step: 2, Rule: "R2 Ask"}}}
	j := New(8, Meta{ID: "c"})
	j.BeginRun(Segment{Label: "s"}, r)
	j.EndDeferredRun(r, "succeeded", 2, 1)
	const readers = 4
	outs := make([]bytes.Buffer, readers)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(out *bytes.Buffer) {
			defer wg.Done()
			if err := j.WriteJSONL(out); err != nil {
				t.Error(err)
			}
		}(&outs[i])
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if outs[i].String() != outs[0].String() {
			t.Errorf("reader %d served\n%s\nreader 0\n%s", i, outs[i].String(), outs[0].String())
		}
	}
	if !strings.Contains(outs[0].String(), `"final_store":"σ"`) {
		t.Errorf("journal lacks the replayed σ:\n%s", outs[0].String())
	}
}

// TestLiteralEvents: a journal read from JSONL serves the text it
// read, including values no recorder would produce.
func TestLiteralEvents(t *testing.T) {
	in := `{"t":"journal","v":1,"id":"lit","capacity":4}
{"t":"segment","i":0,"label":"s","final_blevel":"2"}
{"t":"solver","i":0,"seq":3,"solver":{"kind":"incumbent","node":4,"value":"2.50","reason":"improved"}}
{"t":"end","events":1,"dropped":2}
`
	j, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := j.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Errorf("literal journal re-serialised as\n%s\nwant\n%s", out.String(), in)
	}
}

// TestRecordAllocs: once the rings have grown, recording a solver
// event or a transition allocates nothing.
func TestRecordAllocs(t *testing.T) {
	j := New(64, Meta{})
	j.BeginSegment(Segment{Label: "s"})
	d := Transition{Step: 1, Rule: "R1 Tell", Agent: text("tell(c)→ success"), Delta: text("c"), BlevelAfter: 1}
	for i := 0; i < 64; i++ {
		j.RecordTransition(d)
	}
	if n := testing.AllocsPerRun(200, func() { j.RecordTransition(d) }); n != 0 {
		t.Errorf("RecordTransition allocates %.1f times per call", n)
	}
	s := Search{Kind: Stage, Depth: 2, Value: 3}
	if n := testing.AllocsPerRun(200, func() { j.RecordSearch(s) }); n != 0 {
		t.Errorf("RecordSearch allocates %.1f times per call", n)
	}
}

// TestSolverEventSize: a retained solver event costs one pointer-free
// ring slot of at most 48 bytes.
func TestSolverEventSize(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 48 {
		t.Errorf("ring entry is %d bytes, want <= 48", size)
	}
}

// TestWriteJSONDocument: the single-object form carries the same data
// and never emits null arrays.
func TestWriteJSONDocument(t *testing.T) {
	j := New(4, Meta{ID: "doc"})
	var out bytes.Buffer
	if err := j.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "null") {
		t.Errorf("empty journal document contains null arrays:\n%s", s)
	}
	if !strings.Contains(s, `"id": "doc"`) {
		t.Errorf("document missing meta:\n%s", s)
	}
}

// TestContext: ContextWith/FromContext round-trip, and an untouched
// context yields nil (recording disabled).
func TestContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("background context should carry no journal")
	}
	j := New(1, Meta{})
	ctx := ContextWith(context.Background(), j)
	if FromContext(ctx) != j {
		t.Error("FromContext did not return the attached journal")
	}
}

// TestConcurrentRecording exercises the ring under parallel writers;
// meaningful with -race. Sequence numbers must be unique and the drop
// arithmetic must balance.
func TestConcurrentRecording(t *testing.T) {
	j := New(16, Meta{})
	j.BeginSegment(Segment{Label: "par"})
	done := make(chan struct{})
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				j.RecordTransition(tr(i, fmt.Sprintf("w%d", w)))
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	evs := j.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if got := j.Dropped(); got != writers*per-16 {
		t.Errorf("Dropped() = %d, want %d", got, writers*per-16)
	}
	seen := map[int]bool{}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Errorf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}
