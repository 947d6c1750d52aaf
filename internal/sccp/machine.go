package sccp

import (
	"errors"
	"fmt"
	"math/rand"

	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
)

// Status is the outcome of running a machine.
type Status int

const (
	// Running means the configuration can still evolve.
	Running Status = iota
	// Succeeded means the agent reduced to success.
	Succeeded
	// Stuck means no transition rule applies but the agent is not
	// success: a deadlock (e.g. an ask whose check can never hold).
	Stuck
	// OutOfFuel means the step budget was exhausted.
	OutOfFuel
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Stuck:
		return "stuck"
	case OutOfFuel:
		return "out-of-fuel"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Event records one applied transition.
type Event[T any] struct {
	// Step is the 1-based index of the transition.
	Step int
	// Rule names the applied rule (R1 Tell … R10 P-call).
	Rule string
	// Agent describes the acting sub-agent.
	Agent string
	// Blevel is σ⇓∅ after the transition.
	Blevel T
	// Cut marks a transition that committed a nondeterministic sum:
	// rule R5 discarded the remaining branches.
	Cut bool
}

// DefaultTraceCapacity bounds the machine's transition trace: the
// trace is a ring that keeps the most recent transitions and counts
// the overwritten ones (TraceDropped). WithTraceCapacity resizes it;
// WithUnboundedTrace restores the grow-forever behaviour for callers
// that replay or assert on complete histories.
const DefaultTraceCapacity = 4096

// maxExpansion bounds administrative expansions (procedure calls and
// quantifier openings) within a single step, catching diverging
// recursion like p() :: p().
const maxExpansion = 512

// ErrDiverging is returned when procedure expansion exceeds the
// administrative budget within one step.
var ErrDiverging = errors.New("sccp: procedure expansion diverges")

// Machine executes a configuration ⟨A, σ⟩ by the transition system of
// Fig. 4. Scheduling is an interleaving of enabled actions chosen by
// a seeded RNG, so runs are reproducible; different seeds explore
// different interleavings and nondeterministic (sum) commitments.
type Machine[T any] struct {
	space *core.Space[T]
	store *core.Store[T]
	defs  Defs[T]
	seed  int64
	rng   *rand.Rand
	root  Agent[T]

	// trace is a ring of the most recent transitions: traceCap is its
	// capacity (0 = unbounded), head the next overwrite position once
	// full, dropped the number of overwritten events.
	trace    []Event[T]
	traceCap int
	head     int
	dropped  int64
	steps    int

	// rec, when set, receives one journal.Transition per applied
	// transition, flushed at the end of Step so administrative
	// via-suffixes (R9/R10/Timeout) are already folded into the rule
	// name. recLevel hands σ⇓∅ to the journal as the float64 it
	// records (WithRecorder exists for float64 carriers only).
	// lastC/lastCheck stage the acting constraint and threshold
	// between record and flush; prevBlevel is σ⇓∅ before the pending
	// transition.
	rec        journal.Recorder
	recLevel   func(T) float64
	prevBlevel T
	lastC      *core.Constraint[T]
	lastCheck  Check[T]
}

// MachineOption configures a Machine.
type MachineOption[T any] func(*Machine[T])

// WithDefs supplies procedure declarations (class F).
func WithDefs[T any](d Defs[T]) MachineOption[T] {
	return func(m *Machine[T]) { m.defs = d }
}

// WithSeed seeds the interleaving scheduler (default 1).
func WithSeed[T any](seed int64) MachineOption[T] {
	return func(m *Machine[T]) { m.seed = seed }
}

// WithStore starts execution from an existing store instead of the
// empty store 1̄.
func WithStore[T any](st *core.Store[T]) MachineOption[T] {
	return func(m *Machine[T]) { m.store = st }
}

// WithTraceCapacity bounds the transition trace ring to the n most
// recent events (n < 1 is clamped to 1). The default is
// DefaultTraceCapacity; overwritten events are counted by
// TraceDropped.
func WithTraceCapacity[T any](n int) MachineOption[T] {
	return func(m *Machine[T]) {
		if n < 1 {
			n = 1
		}
		m.traceCap = n
	}
}

// WithUnboundedTrace lets the trace grow without bound — the
// pre-ring behaviour. Only use it for bounded runs whose complete
// history is asserted on or replayed; a long-lived machine with an
// unbounded trace is a memory leak.
func WithUnboundedTrace[T any]() MachineOption[T] {
	return func(m *Machine[T]) { m.traceCap = 0 }
}

// WithRecorder streams every applied transition into rec as a
// journal.Transition: rule name (with via-suffixes), acting agent,
// the told/retracted constraint and the threshold annotation as
// values, and σ⇓∅ before/after as raw float64s. The machine formats
// none of them; the journal renders them when it is read.
func WithRecorder(rec journal.Recorder) MachineOption[float64] {
	return func(m *Machine[float64]) {
		m.rec = rec
		m.recLevel = func(v float64) float64 { return v }
	}
}

// NewMachine returns a machine for the initial configuration
// ⟨root, 1̄⟩ over the given space.
func NewMachine[T any](space *core.Space[T], root Agent[T], opts ...MachineOption[T]) *Machine[T] {
	m := &Machine[T]{
		space:    space,
		store:    core.NewStore(space),
		defs:     Defs[T]{},
		seed:     1,
		root:     root,
		traceCap: DefaultTraceCapacity,
	}
	for _, o := range opts {
		o(m)
	}
	m.rng = rand.New(rand.NewSource(m.seed))
	if m.rec != nil {
		// Baseline for the first record's BlevelBefore; with WithStore
		// the machine may start from a non-trivial σ.
		m.prevBlevel = m.store.Blevel()
	}
	return m
}

// Store returns the machine's store.
func (m *Machine[T]) Store() *core.Store[T] { return m.store }

// Agent returns the current agent.
func (m *Machine[T]) Agent() Agent[T] { return m.root }

// Trace returns the retained transitions, oldest first. Under the
// default bounded ring this is the most recent DefaultTraceCapacity
// transitions; Steps counts all of them and TraceDropped the
// overwritten ones.
func (m *Machine[T]) Trace() []Event[T] {
	out := make([]Event[T], 0, len(m.trace))
	if m.traceCap > 0 && len(m.trace) == m.traceCap {
		out = append(out, m.trace[m.head:]...)
		out = append(out, m.trace[:m.head]...)
		return out
	}
	return append(out, m.trace...)
}

// Steps returns the number of transitions applied so far, counting
// those the bounded trace ring has already dropped.
func (m *Machine[T]) Steps() int { return m.steps }

// TraceDropped returns how many transitions the bounded trace ring
// overwrote.
func (m *Machine[T]) TraceDropped() int64 { return m.dropped }

// Status reports the current status without stepping.
func (m *Machine[T]) Status() Status {
	if _, ok := m.root.(Success[T]); ok {
		return Succeeded
	}
	return Running
}

// Step attempts one transition anywhere in the agent tree. It reports
// whether a transition was applied; administrative rewrites (opening
// a quantifier, expanding a call) may change the agent without
// counting as a transition.
func (m *Machine[T]) Step() (bool, error) {
	next, applied, err := m.step(m.root, 0)
	if err != nil {
		return false, err
	}
	m.root = next
	if applied {
		m.flush()
	}
	return applied, nil
}

// Run steps the machine until success, deadlock, or fuel exhaustion.
func (m *Machine[T]) Run(fuel int) (Status, error) {
	for i := 0; i < fuel; i++ {
		if _, ok := m.root.(Success[T]); ok {
			return Succeeded, nil
		}
		applied, err := m.step1()
		if err != nil {
			return Stuck, err
		}
		if !applied {
			if _, ok := m.root.(Success[T]); ok {
				return Succeeded, nil
			}
			return Stuck, nil
		}
	}
	if _, ok := m.root.(Success[T]); ok {
		return Succeeded, nil
	}
	return OutOfFuel, nil
}

// step1 applies one transition, allowing a bounded number of purely
// administrative rewrites in between.
func (m *Machine[T]) step1() (bool, error) {
	for i := 0; i < maxExpansion; i++ {
		before := m.root
		applied, err := m.Step()
		if err != nil {
			return false, err
		}
		if applied {
			return true, nil
		}
		if agentEq[T](before, m.root) {
			return false, nil
		}
	}
	return false, ErrDiverging
}

// agentEq is a cheap identity check used to detect administrative
// progress; it compares the trees' printed forms.
func agentEq[T any](a, b Agent[T]) bool { return a.String() == b.String() }

func (m *Machine[T]) record(rule string, ag Agent[T], c *core.Constraint[T], check Check[T]) {
	m.steps++
	ev := Event[T]{
		Step:   m.steps,
		Rule:   rule,
		Agent:  ag.String(),
		Blevel: m.store.Blevel(),
	}
	if m.traceCap > 0 && len(m.trace) == m.traceCap {
		m.trace[m.head] = ev
		m.head = (m.head + 1) % m.traceCap
		m.dropped++
	} else {
		m.trace = append(m.trace, ev)
	}
	m.lastC, m.lastCheck = c, check
}

// lastEvent returns the most recently recorded transition, which the
// administrative wrappers (R9/R10/Timeout) annotate in place.
func (m *Machine[T]) lastEvent() *Event[T] {
	if len(m.trace) == 0 {
		return nil
	}
	if m.traceCap > 0 && len(m.trace) == m.traceCap {
		return &m.trace[(m.head+m.traceCap-1)%m.traceCap]
	}
	return &m.trace[len(m.trace)-1]
}

// flush emits the pending transition to the recorder. It runs at the
// end of Step — after the administrative via-suffixes were applied —
// so the recorded rule name matches Trace exactly.
func (m *Machine[T]) flush() {
	ev := m.lastEvent()
	if ev == nil {
		return
	}
	if m.rec != nil {
		sr := m.space.Semiring()
		tr := journal.Transition{
			Step:         ev.Step,
			Rule:         ev.Rule,
			Agent:        ev.Agent,
			BlevelBefore: m.recLevel(m.prevBlevel),
			BlevelAfter:  m.recLevel(ev.Blevel),
			Consistent:   !sr.Eq(ev.Blevel, sr.Zero()),
			Cut:          ev.Cut,
		}
		if m.lastC != nil {
			tr.Delta = m.lastC
		}
		if !m.lastCheck.unrestricted() {
			tr.Check = m.lastCheck
		}
		m.rec.RecordTransition(tr)
		m.prevBlevel = ev.Blevel
	}
	m.lastC, m.lastCheck = nil, Check[T]{}
}

// step attempts to find and apply one enabled action in the subtree.
// It returns the (possibly rewritten) subtree and whether a real
// transition was applied.
func (m *Machine[T]) step(a Agent[T], depth int) (Agent[T], bool, error) {
	if depth > maxExpansion {
		return a, false, ErrDiverging
	}
	sr := m.space.Semiring()
	switch ag := a.(type) {
	case Success[T]:
		return a, false, nil

	case Tell[T]: // R1
		candidate := core.Combine(m.store.Constraint(), ag.C)
		if !ag.Check.Holds(sr, candidate) {
			return a, false, nil
		}
		m.store.Tell(ag.C)
		m.record("R1 Tell", ag, ag.C, ag.Check)
		return ag.Next, true, nil

	case Ask[T]: // R2
		if !m.store.Entails(ag.C) || !ag.Check.Holds(sr, m.store.Constraint()) {
			return a, false, nil
		}
		m.record("R2 Ask", ag, nil, ag.Check)
		return ag.Next, true, nil

	case Nask[T]: // R6
		if m.store.Entails(ag.C) || !ag.Check.Holds(sr, m.store.Constraint()) {
			return a, false, nil
		}
		m.record("R6 Nask", ag, nil, ag.Check)
		return ag.Next, true, nil

	case Retract[T]: // R7
		if !m.store.Entails(ag.C) {
			return a, false, nil
		}
		candidate := core.Divide(m.store.Constraint(), ag.C)
		if !ag.Check.Holds(sr, candidate) {
			return a, false, nil
		}
		if !m.store.Retract(ag.C) {
			return a, false, nil
		}
		m.record("R7 Retract", ag, ag.C, ag.Check)
		return ag.Next, true, nil

	case Update[T]: // R8
		candidate := core.Combine(core.ProjectOut(m.store.Constraint(), ag.Vars...), ag.C)
		if !ag.Check.Holds(sr, candidate) {
			return a, false, nil
		}
		m.store.Update(ag.Vars, ag.C)
		m.record("R8 Update", ag, ag.C, ag.Check)
		return ag.Next, true, nil

	case Parallel[T]: // R3/R4
		first, second := ag.Left, ag.Right
		swapped := m.rng.Intn(2) == 1
		if swapped {
			first, second = second, first
		}
		f2, applied, err := m.step(first, depth+1)
		if err != nil {
			return a, false, err
		}
		if applied || !agentEq[T](first, f2) {
			return rebuildPar[T](f2, second, swapped), applied, nil
		}
		s2, applied, err := m.step(second, depth+1)
		if err != nil {
			return a, false, err
		}
		if applied || !agentEq[T](second, s2) {
			return rebuildPar[T](f2, s2, swapped), applied, nil
		}
		return a, false, nil

	case Sum[T]: // R5
		for _, i := range m.rng.Perm(len(ag.branches)) {
			b2, applied, err := m.step(ag.branches[i], depth+1)
			if err != nil {
				return a, false, err
			}
			if applied {
				if len(ag.branches) > 1 {
					// The transition committed the sum: the other
					// branches are discarded (the "cut").
					m.lastEvent().Cut = true
				}
				return b2, true, nil
			}
		}
		return a, false, nil

	case Exists[T]: // R9 (administrative opening, then the body moves)
		fresh := m.space.FreshVariable(ag.Prefix, ag.Domain)
		body := ag.Body(fresh)
		next, applied, err := m.step(body, depth+1)
		if err != nil {
			return a, false, err
		}
		if applied {
			m.lastEvent().Rule += " (via R9 Hide)"
		}
		return next, applied, nil

	case Timeout[T]: // timed extension: body, tick, or expiry
		return m.stepTimeout(ag, depth)

	case Call[T]: // R10 (administrative expansion, then the body moves)
		clause, ok := m.defs[ag.Name]
		if !ok {
			return a, false, fmt.Errorf("sccp: undeclared procedure %q", ag.Name)
		}
		if clause.Arity != len(ag.Args) {
			return a, false, fmt.Errorf("sccp: %s expects %d args, got %d",
				ag.Name, clause.Arity, len(ag.Args))
		}
		body := clause.Body(append([]core.Variable(nil), ag.Args...))
		next, applied, err := m.step(body, depth+1)
		if err != nil {
			return a, false, err
		}
		if applied {
			m.lastEvent().Rule += " (via R10 P-call)"
		}
		return next, applied, nil

	default:
		return a, false, fmt.Errorf("sccp: unknown agent type %T", a)
	}
}

// rebuildPar reassembles a parallel composition after one branch was
// rewritten, applying R4: a succeeded branch disappears.
func rebuildPar[T any](stepped, other Agent[T], swapped bool) Agent[T] {
	if _, ok := stepped.(Success[T]); ok {
		return other
	}
	if _, ok := other.(Success[T]); ok {
		return stepped
	}
	if swapped {
		return Parallel[T]{Left: other, Right: stepped}
	}
	return Parallel[T]{Left: stepped, Right: other}
}
