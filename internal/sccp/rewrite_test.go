package sccp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"softsoa/internal/core"
)

// adminScenario is a program whose runs hinge on administrative
// rewrites: opened quantifiers, expanded calls, timer bodies that
// rewrite or expire, parallel branches that block.
type adminScenario struct {
	name  string
	build func() (*core.Space[float64], Agent[float64], Defs[float64])
}

func adminScenarios() []adminScenario {
	succ := Success[float64]{}
	blockedExists := func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
		return Exists[float64]{Prefix: "z", Domain: core.IntDomain(0, 2), Body: func(core.Variable) Agent[float64] {
			return Ask[float64]{C: cs["c4"], Next: succ}
		}}
	}
	waitDefs := func(cs map[string]*core.Constraint[float64]) Defs[float64] {
		defs := Defs[float64]{}
		defs.Declare("wait", 0, func([]core.Variable) Agent[float64] {
			return Ask[float64]{C: cs["sp1"], Next: Tell[float64]{C: cs["c4"], Next: succ}}
		})
		defs.Declare("p", 1, func(args []core.Variable) Agent[float64] {
			v := args[0]
			c := core.NewConstraint(cs["c1"].Space(), []core.Variable{v}, func(a core.Assignment) float64 { return a.Num(v) })
			return Par[float64](Ask[float64]{C: cs["c4"], Next: succ}, Tell[float64]{C: c, Next: succ})
		})
		defs.Declare("loop", 0, func([]core.Variable) Agent[float64] { return Call[float64]{Name: "loop"} })
		return defs
	}
	scenario := func(name string, agent func(*core.Space[float64], map[string]*core.Constraint[float64]) Agent[float64]) adminScenario {
		return adminScenario{name: name, build: func() (*core.Space[float64], Agent[float64], Defs[float64]) {
			s, cs := negotiationSpace()
			return s, agent(s, cs), waitDefs(cs)
		}}
	}
	return []adminScenario{
		scenario("parallel-one-blocked", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Ask[float64]{C: cs["c4"], Next: succ},
				Tell[float64]{C: cs["c1"], Next: Tell[float64]{C: cs["c2"], Next: succ}})
		}),
		scenario("exists", func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Exists[float64]{Prefix: "z", Domain: core.IntDomain(0, 4), Body: func(z core.Variable) Agent[float64] {
				c := core.NewConstraint(s, []core.Variable{z}, func(a core.Assignment) float64 { return a.Num(z) + 7 })
				return Tell[float64]{C: c, Next: Ask[float64]{C: cs["c4"], Next: succ}}
			}}, Tell[float64]{C: cs["c4"], Next: succ})
		}),
		scenario("exists-blocked", func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return blockedExists(s, cs)
		}),
		scenario("call", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Call[float64]{Name: "p", Args: []core.Variable{"x"}}
		}),
		scenario("call-parallel", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Call[float64]{Name: "p", Args: []core.Variable{"y"}}, Tell[float64]{C: cs["c4"], Next: succ})
		}),
		scenario("call-diverging", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Call[float64]{Name: "loop"}, Tell[float64]{C: cs["c1"], Next: succ})
		}),
		scenario("timeout-body-rewrite", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Timeout[float64]{Budget: 2, Body: Call[float64]{Name: "wait"}, Else: Tell[float64]{C: cs["c1"], Next: succ}}
		}),
		scenario("timeout-expiry", func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Timeout[float64]{Budget: 0, Body: Tell[float64]{C: cs["c4"], Next: succ}, Else: blockedExists(s, cs)}
		}),
		scenario("timeout-expired-blocked", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Timeout[float64]{Budget: 0, Body: Tell[float64]{C: cs["c4"], Next: succ}, Else: Ask[float64]{C: cs["sp1"], Next: succ}},
				Tell[float64]{C: cs["sp1"], Next: succ})
		}),
		scenario("timeout-expired-stuck", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Timeout[float64]{Budget: 0, Body: Tell[float64]{C: cs["c4"], Next: succ}, Else: Ask[float64]{C: cs["c4"], Next: succ}},
				Ask[float64]{C: cs["sp1"], Next: succ})
		}),
		scenario("timeout-partner", func(_ *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Timeout[float64]{Budget: 3, Body: Call[float64]{Name: "wait"}, Else: succ},
				Tell[float64]{C: cs["c2"], Next: Tell[float64]{C: cs["sp1"], Next: succ}})
		}),
		// A sum whose only branch rewrites and then blocks: the sum
		// discards the rewrite, so the machine is stuck, not diverging.
		scenario("sum-branch-rewrites", func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Sum[float64]{branches: []Agent[float64]{blockedExists(s, cs)}}
		}),
		scenario("sum-branch-rewrites-parallel", func(s *core.Space[float64], cs map[string]*core.Constraint[float64]) Agent[float64] {
			return Par[float64](Sum[float64]{branches: []Agent[float64]{blockedExists(s, cs)}},
				Tell[float64]{C: cs["c4"], Next: succ})
		}),
	}
}

// adminRun runs a scenario to the end and renders everything a run
// shows: status, error, each transition and the residual agent.
func adminRun(sc adminScenario, seed int64) string {
	s, agent, defs := sc.build()
	m := NewMachine(s, agent, WithDefs(defs), WithSeed[float64](seed))
	status, err := m.Run(60)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s seed=%d: %s err=%v\n", sc.name, seed, status, err)
	for _, ev := range m.Trace() {
		fmt.Fprintf(&b, "%d %s [%s] %v cut=%v\n", ev.Step, ev.Rule, ev.Agent, ev.Blevel, ev.Cut)
	}
	fmt.Fprintf(&b, "residual %s\n", m.Agent())
	return b.String()
}

// TestRewriteSignalMatchesPrintedForm: a step that applies no
// transition made progress exactly when the agent's printed form
// changed, the test the machine ran before it counted rewrites; and
// every scenario reaches the status, trace and residual agent recorded
// in testdata/rewrite.golden from the printed-form machine.
func TestRewriteSignalMatchesPrintedForm(t *testing.T) {
	var got strings.Builder
	for _, sc := range adminScenarios() {
		for seed := int64(1); seed <= 4; seed++ {
			s, agent, defs := sc.build()
			m := NewMachine(s, agent, WithDefs(defs), WithSeed[float64](seed))
			for i := 0; i < 200; i++ {
				before, rewrites := m.Agent().String(), m.rewrites
				applied, err := m.Step()
				if err != nil {
					break
				}
				if applied {
					continue
				}
				printed := m.Agent().String() != before
				if counted := m.rewrites != rewrites; counted != printed {
					t.Fatalf("%s seed %d step %d: rewrite counted %v, printed form changed %v (%s → %s)",
						sc.name, seed, i, counted, printed, before, m.Agent())
				}
				if !printed {
					break
				}
			}
			got.WriteString(adminRun(sc, seed))
		}
	}
	want, err := os.ReadFile("testdata/rewrite.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("runs differ from the printed-form machine's:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestSumDiscardsBranchRewrite: a sum whose only branch rewrites and
// then blocks ends Stuck. A rewrite signal that kept the discarded
// branch's rewrite would report progress forever and end in
// ErrDiverging.
func TestSumDiscardsBranchRewrite(t *testing.T) {
	s, cs := negotiationSpace()
	sum := Sum[float64]{branches: []Agent[float64]{Exists[float64]{
		Prefix: "z", Domain: core.IntDomain(0, 2),
		Body: func(core.Variable) Agent[float64] { return Ask[float64]{C: cs["c4"], Next: Success[float64]{}} },
	}}}
	status, err := NewMachine[float64](s, sum).Run(10)
	if err != nil || status != Stuck {
		t.Fatalf("status %v, err %v; want stuck", status, err)
	}
}
