package broker

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
)

// This file synthesises nmsccp surface programs for journal segments so
// cmd/softsoa-replay can re-execute a broker negotiation from nothing
// but the journal. The synthesised source compiles to the exact agent
// tree negotiationAgents / renegotiationAgent build in memory: the
// same variable declaration order, the same constraint value
// functions (the compiled expression evaluates base + per·x through
// the identical floating-point operations as
// soa.Attribute.ToConstraint), the same sync-flag comparisons and the
// same checked transition. Replaying it with the
// machine's default seed therefore reproduces every recorded
// transition, the final store and the blevel bit for bit.
//
// Synthesis runs when a journal is read, not when it is recorded: a
// segment holds a negProgram or renegProgram, the inputs captured at
// record time, and the journal calls Source to render the text. A
// request without a journal sink therefore never formats, parses or
// compiles a program. A captured program renders once and keeps its
// text: a cached plan hands the same program to every segment it
// replays into, and brokerd -journal-dir rewrites an SLA's journal on
// the request goroutine after every renegotiation, so without the
// kept text each dump would prove every earlier segment again.
//
// The same captured inputs are the segment's run. The broker applies a
// negotiation's or renegotiation's effects to the store without the
// machine and reserves the transitions the machine would record; the
// first read of the journal calls Replay, which runs the machine once
// on the in-memory agents and hands over its transitions and final σ.
//
// Synthesis can fail — a resource named after a keyword, a negative
// threshold the surface grammar cannot spell, a non-finite attribute.
// In that case the segment carries an empty Program and is recorded as
// evidence only, not replayed; the synthesiser proves every non-empty
// program by compiling it before handing it out. A renegotiation's
// program is also withdrawn, with a note saying so, when its setup
// does not rebuild the session store bit for bit (see
// renegotiationJournalProgram).

// journalNum renders a float like the sccp formatter: %g, falling back
// to plain decimals because the lexer has no exponent syntax.
func journalNum(v float64) (string, bool) {
	if math.IsNaN(v) || math.IsInf(v, -1) {
		return "", false
	}
	if math.IsInf(v, 1) {
		return "inf", true
	}
	s := fmt.Sprintf("%g", v)
	if strings.ContainsAny(s, "eE") {
		s = fmt.Sprintf("%f", v)
		s = strings.TrimRight(s, "0")
		s = strings.TrimSuffix(s, ".")
	}
	// The text must parse back to the identical float or the replayed
	// constraint tables drift by an ulp.
	if r, err := strconv.ParseFloat(s, 64); err != nil || r != v {
		return "", false
	}
	return s, true
}

// qosExpr renders the surface expression whose compiled constraint
// equals attr.ToConstraint: the affine value for cost/downtime (the
// weighted coerce clamps negatives to 0 exactly like math.Max), the
// percentage form divided by 100 for reliability/preference (clampUnit
// matches the Max/Min pair).
func qosExpr(attr soa.Attribute) (string, bool) {
	base, ok := journalNum(attr.Base)
	if !ok {
		return "", false
	}
	per, ok := journalNum(attr.PerUnit)
	if !ok {
		return "", false
	}
	affine := fmt.Sprintf("(%s + (%s * %s))", base, per, attr.Resource)
	switch attr.Metric {
	case soa.MetricCost, soa.MetricDowntime:
		return affine, true
	default:
		return fmt.Sprintf("(%s / 100)", affine), true
	}
}

// journalArrow renders the checked transition: "->" unrestricted,
// "->[a1,a2]" with "_" for an absent bound. The surface grammar has no
// negative thresholds.
func journalArrow(lower, upper *float64) (string, bool) {
	if lower == nil && upper == nil {
		return "->", true
	}
	bound := func(p *float64) (string, bool) {
		if p == nil {
			return "_", true
		}
		if *p < 0 {
			return "", false
		}
		return journalNum(*p)
	}
	lo, ok := bound(lower)
	if !ok {
		return "", false
	}
	hi, ok := bound(upper)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("->[%s,%s]", lo, hi), true
}

// journalHeader renders the shared declaration prefix: the semiring
// and the variables in the order negotiateOne adds them to the space —
// sorted resource names, then the sync flags.
func journalHeader(srName string, names []string, maxUnits map[string]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "semiring %s.\n", srName)
	for _, name := range names {
		fmt.Fprintf(&b, "var %s in 0..%d.\n", name, maxUnits[name])
	}
	b.WriteString("var spP in 0..1.\nvar spC in 0..1.\n")
	return b.String()
}

// proveProgram compiles the synthesised source; a program that does
// not compile (keyword-named resource, inverted thresholds, flag
// variable shadowed by a resource) is withdrawn rather than recorded
// as replayable.
func proveProgram(src string) string {
	if _, err := sccp.ParseAndCompile(src); err != nil {
		return ""
	}
	return src
}

// programText is a captured program's text, rendered by the first
// read.
type programText struct {
	once     sync.Once
	src      string
	setup    int
	withheld string
}

func (t *programText) get(render func() (string, int, string)) (string, int, string) {
	t.once.Do(func() { t.src, t.setup, t.withheld = render() })
	return t.src, t.setup, t.withheld
}

// storeText is a run's final σ, rendered by the first read: a cached
// plan hands the same run to every segment it replays into.
type storeText struct {
	once sync.Once
	c    *core.Constraint[float64]
	s    string
}

// String renders σ once and keeps the text in its place.
func (t *storeText) String() string {
	t.once.Do(func() {
		if t.c != nil {
			t.s = t.c.String()
		}
		t.c = nil
	})
	return t.s
}

// transitionLog collects the transitions a replayed run records.
type transitionLog []journal.Transition

func (l *transitionLog) RecordTransition(t journal.Transition) { *l = append(*l, t) }

// derivedRun is a deferred run's transitions and final σ, derived by
// the first read that asks for them: the machine runs once however
// many readers, and however many segments a cached plan replays the
// run into, ask at the same time.
type derivedRun struct {
	once  sync.Once
	trs   []journal.Transition
	final storeText
}

// get runs run once, handing it the recorder to record into; run
// returns the machine's final σ.
func (r *derivedRun) get(run func(rec journal.Recorder) *core.Constraint[float64]) ([]journal.Transition, fmt.Stringer) {
	r.once.Do(func() {
		var log transitionLog
		r.final.c = run(&log)
		r.trs = log
	})
	return r.trs, &r.final
}

// negProgram is a negotiation segment's program and run, captured as
// the inputs negotiationJournalProgram renders it from and
// negotiationAgents runs. Every field is immutable once captured (the
// bounds by Request's contract), so a journal may render or replay it
// at any time.
type negProgram struct {
	text         programText
	run          derivedRun
	sr           semiring.Semiring[float64]
	offer, req   soa.Attribute
	lower, upper *float64
}

func newNegProgram(sr semiring.Semiring[float64], offer, req soa.Attribute, lower, upper *float64) *negProgram {
	return &negProgram{sr: sr, offer: offer, req: req, lower: lower, upper: upper}
}

// Source implements journal.Program.
func (p *negProgram) Source() (string, int, string) {
	return p.text.get(func() (string, int, string) {
		names, maxUnits := negVars(p.req, p.offer)
		return negotiationJournalProgram(p.sr.Name(), p.offer, p.req, names, maxUnits, p.lower, p.upper), 0, ""
	})
}

// Replay implements journal.Run: it compiles the instance again and
// runs the machine on the two agents, as the broker did before it
// applied their effects directly.
func (p *negProgram) Replay() ([]journal.Transition, fmt.Stringer) {
	return p.run.get(func(rec journal.Recorder) *core.Constraint[float64] {
		inst, err := newNegInstance(p.sr, p.req, p.offer)
		if err != nil {
			// The live run compiled the same inputs.
			return nil
		}
		m := sccp.NewMachine(inst.space, negotiationAgents(inst, p.check()), sccp.WithRecorder(rec))
		runMachine(m, negotiationFuel)
		return m.Store().Constraint()
	})
}

func (p *negProgram) check() sccp.Check[float64] {
	return sccp.Check[float64]{LowerValue: p.lower, UpperValue: p.upper}
}

// runMachine runs a negotiation's or renegotiation's machine. Its
// agents are straight-line and the fuel covers them, so Run cannot
// fail; the status and what the machine recorded are the run either
// way.
func runMachine(m *sccp.Machine[float64], fuel int) sccp.Status {
	//lint:ignore errcheck straight-line agents within their fuel cannot fail
	status, _ := m.Run(fuel)
	return status
}

// renegProgram is a renegotiation segment's program and run, captured
// before the session changes: the session's instance, offer and
// current requirement, and σ as the renegotiation found it
// (constraints are immutable), whose bits the setup must rebuild and
// from which the replay starts.
type renegProgram struct {
	text         programText
	run          derivedRun
	inst         *negInstance
	offer, cur   soa.Attribute
	next         soa.Attribute
	before       *core.Constraint[float64]
	lower, upper *float64
}

func newRenegProgram(s *Session, next soa.Attribute, lower, upper *float64) *renegProgram {
	return &renegProgram{
		inst: s.inst, offer: s.offerAttr, cur: s.reqAttr, next: next,
		before: s.store.Constraint(), lower: lower, upper: upper,
	}
}

// Source implements journal.Program.
func (p *renegProgram) Source() (string, int, string) {
	return p.text.get(func() (string, int, string) { return renegotiationJournalProgram(p) })
}

// Replay implements journal.Run: it runs the machine on the
// retract/tell agent from σ as the renegotiation found it, with the
// requirement constraints compiled again.
func (p *renegProgram) Replay() ([]journal.Transition, fmt.Stringer) {
	return p.run.get(func(rec journal.Recorder) *core.Constraint[float64] {
		space := p.inst.space
		cur, err1 := p.cur.ToConstraint(space, p.inst.resourceVars[p.cur.Resource])
		next, err2 := p.next.ToConstraint(space, p.inst.resourceVars[p.next.Resource])
		if err1 != nil || err2 != nil {
			// The live renegotiation compiled the same inputs.
			return nil
		}
		m := sccp.NewMachine(space, renegotiationAgent(cur, next, sccp.Check[float64]{LowerValue: p.lower, UpperValue: p.upper}),
			sccp.WithStore(core.StoreOf(p.before)), sccp.WithRecorder(rec))
		runMachine(m, renegotiationFuel)
		return m.Store().Constraint()
	})
}

// negotiationJournalProgram renders the two-agent negotiation of
// negotiateOne:
//
//	main :: tell(offer) -> tell(spP==1) -> ask(spC==1) -> success
//	     || tell(req)   -> tell(spC==1) -> ask(spP==1)->[a1,a2] success.
func negotiationJournalProgram(
	srName string,
	offer, requirement soa.Attribute,
	names []string, maxUnits map[string]int,
	lower, upper *float64,
) string {
	offerExpr, ok1 := qosExpr(offer)
	reqExpr, ok2 := qosExpr(requirement)
	arrow, ok3 := journalArrow(lower, upper)
	if !ok1 || !ok2 || !ok3 {
		return ""
	}
	var b strings.Builder
	b.WriteString(journalHeader(srName, names, maxUnits))
	fmt.Fprintf(&b,
		"main :: tell(%s) -> tell((spP == 1)) -> ask((spC == 1)) -> success || tell(%s) -> tell((spC == 1)) -> ask((spP == 1))%s success.\n",
		offerExpr, reqExpr, arrow)
	return proveProgram(b.String())
}

// renegotiationJournalProgram renders a Session.Renegotiate as a
// replayable segment: a setup prefix of four tells that rebuilds the
// session store, then the retract/tell pair the live machine actually
// ran. The setup tells follow the variables' declaration order (the
// offer first on a shared resource); the sync flags contribute exact
// semiring identities and the two affine constraints commute exactly
// under the carrier operation, so the setup rebuilds σ as offer ⊗
// requirement. σ is that product until a retraction rounds: ÷ does not
// undo ⊗ for fuzzy min, nor in floats for + and ×. So the setup is
// run, and the program is kept only when it rebuilds σ bit for bit;
// otherwise it is withdrawn and the third result, a note suffix, says
// why. Returns the program, the setup length and that suffix.
func renegotiationJournalProgram(p *renegProgram) (string, int, string) {
	offerExpr, ok1 := qosExpr(p.offer)
	curExpr, ok2 := qosExpr(p.cur)
	newExpr, ok3 := qosExpr(p.next)
	arrow, ok4 := journalArrow(p.lower, p.upper)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return "", 0, ""
	}
	tells := []string{offerExpr, curExpr, "(spP == 1)", "(spC == 1)"}
	if p.cur.Resource < p.offer.Resource {
		tells[0], tells[1] = curExpr, offerExpr
	}

	var b strings.Builder
	b.WriteString(journalHeader(p.inst.space.Semiring().Name(), p.inst.names, p.inst.maxUnits))
	b.WriteString("main :: ")
	for _, t := range tells {
		fmt.Fprintf(&b, "tell(%s) -> ", t)
	}
	fmt.Fprintf(&b, "retract(%s) -> tell(%s)%s success.\n", curExpr, newExpr, arrow)
	c, err := sccp.ParseAndCompile(b.String())
	if err != nil {
		return "", 0, ""
	}
	m := c.NewMachine()
	if _, err := m.Run(len(tells)); err != nil || !sameBits(m.Store().Constraint(), p.before) {
		return "", 0, "; program withdrawn: its setup does not rebuild the session store bit for bit"
	}
	return b.String(), len(tells), ""
}

// sameBits reports whether two constraints, possibly over different
// spaces, have the same scope names and bit-identical tables.
func sameBits(a, b *core.Constraint[float64]) bool {
	return slices.Equal(a.Scope(), b.Scope()) && slices.EqualFunc(a.Values(nil), b.Values(nil),
		func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
