package broker

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"softsoa/internal/core"
	"softsoa/internal/sccp"
	"softsoa/internal/soa"
)

// This file synthesises nmsccp surface programs for journal segments so
// cmd/softsoa-replay can re-execute a broker negotiation from nothing
// but the journal. The synthesised source compiles to the exact agent
// tree negotiateOne / Renegotiate build in memory: the same variable
// declaration order, the same constraint value functions (the compiled
// expression evaluates base + per·x through the identical floating-
// point operations as soa.Attribute.ToConstraint), the same sync-flag
// comparisons and the same checked transition. Replaying it with the
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
// Synthesis can fail — a resource named after a keyword, a negative
// threshold the surface grammar cannot spell, a non-finite attribute.
// In that case the segment carries an empty Program and is recorded as
// evidence only, not replayed; the synthesiser proves every non-empty
// program by compiling it before handing it out.

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
	once  sync.Once
	src   string
	setup int
}

func (t *programText) get(render func() (string, int)) (string, int) {
	t.once.Do(func() { t.src, t.setup = render() })
	return t.src, t.setup
}

// storeText is a run's final σ, rendered by the first read: a cached
// plan hands the same σ to every segment it replays into.
type storeText struct {
	once sync.Once
	c    *core.Constraint[float64]
	s    string
}

// String renders σ once and keeps the text in its place.
func (t *storeText) String() string {
	t.once.Do(func() {
		t.s = t.c.String()
		t.c = nil
	})
	return t.s
}

// negProgram is a negotiation segment's program, captured as the
// inputs negotiationJournalProgram renders it from. Every field is
// immutable once captured (the bounds by Request's contract), so a
// journal may render it at any time.
type negProgram struct {
	text         programText
	srName       string
	offer, req   soa.Attribute
	names        []string
	maxUnits     map[string]int
	lower, upper *float64
}

func newNegProgram(srName string, offer, req soa.Attribute, inst *negInstance, lower, upper *float64) *negProgram {
	return &negProgram{
		srName: srName, offer: offer, req: req,
		names: inst.names, maxUnits: inst.maxUnits,
		lower: lower, upper: upper,
	}
}

// Source implements journal.Program.
func (p *negProgram) Source() (string, int) {
	return p.text.get(func() (string, int) {
		return negotiationJournalProgram(p.srName, p.offer, p.req, p.names, p.maxUnits, p.lower, p.upper), 0
	})
}

// renegProgram is a renegotiation segment's program, captured before
// the run mutates the session: the session's offer and current
// requirement, and the scope order of σ as the run found it, which
// orders the setup tells.
type renegProgram struct {
	text         programText
	srName       string
	offer, cur   soa.Attribute
	next         soa.Attribute
	maxUnits     map[string]int
	scope        []core.Variable
	lower, upper *float64
}

func newRenegProgram(s *Session, next soa.Attribute, lower, upper *float64) *renegProgram {
	return &renegProgram{
		srName: s.sr.Name(), offer: s.offerAttr, cur: s.reqAttr, next: next,
		maxUnits: s.maxUnits, scope: s.store.Constraint().Scope(),
		lower: lower, upper: upper,
	}
}

// Source implements journal.Program.
func (p *renegProgram) Source() (string, int) {
	return p.text.get(func() (string, int) { return renegotiationJournalProgram(p) })
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
	offerExpr, ok := qosExpr(offer)
	if !ok {
		return ""
	}
	reqExpr, ok := qosExpr(requirement)
	if !ok {
		return ""
	}
	arrow, ok := journalArrow(lower, upper)
	if !ok {
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
// ran. The setup tells are ordered so variables enter the store scope
// in the recorded order — the sync flags contribute exact semiring
// identities and the two affine constraints commute exactly under the
// carrier operation, so matching the scope order makes the rebuilt
// store (and every subsequent division and combination) bit-identical
// to the live one. Returns the program and the setup length.
func renegotiationJournalProgram(p *renegProgram) (string, int) {
	if p.offer.Resource == "" || p.cur.Resource == "" || len(p.maxUnits) == 0 {
		return "", 0
	}
	offerExpr, ok := qosExpr(p.offer)
	if !ok {
		return "", 0
	}
	curExpr, ok := qosExpr(p.cur)
	if !ok {
		return "", 0
	}
	newExpr, ok := qosExpr(p.next)
	if !ok {
		return "", 0
	}
	arrow, ok := journalArrow(p.lower, p.upper)
	if !ok {
		return "", 0
	}

	names := make([]string, 0, len(p.maxUnits))
	for name := range p.maxUnits {
		names = append(names, name)
	}
	sort.Strings(names)

	// Order the setup tells by where each constraint's variable first
	// appears in the live store's scope; the offer precedes the
	// requirement on a shared resource (their order cannot change the
	// table — the carrier operations commute exactly).
	scopeIndex := map[core.Variable]int{}
	for i, v := range p.scope {
		scopeIndex[v] = i
	}
	type setupTell struct {
		expr string
		rank int
		tie  int
	}
	rank := func(v core.Variable, fallback int) int {
		if i, ok := scopeIndex[v]; ok {
			return i
		}
		return fallback
	}
	tells := []setupTell{
		{offerExpr, rank(core.Variable(p.offer.Resource), len(scopeIndex)), 0},
		{curExpr, rank(core.Variable(p.cur.Resource), len(scopeIndex)+1), 1},
		{"(spP == 1)", rank("spP", len(scopeIndex)+2), 2},
		{"(spC == 1)", rank("spC", len(scopeIndex)+3), 3},
	}
	sort.SliceStable(tells, func(i, j int) bool {
		if tells[i].rank != tells[j].rank {
			return tells[i].rank < tells[j].rank
		}
		return tells[i].tie < tells[j].tie
	})

	var b strings.Builder
	b.WriteString(journalHeader(p.srName, names, p.maxUnits))
	b.WriteString("main :: ")
	for _, t := range tells {
		fmt.Fprintf(&b, "tell(%s) -> ", t.expr)
	}
	fmt.Fprintf(&b, "retract(%s) -> tell(%s)%s success.\n", curExpr, newExpr, arrow)
	if src := proveProgram(b.String()); src != "" {
		return src, len(tells)
	}
	return "", 0
}
