// Benchmarks regenerating every experiment of EXPERIMENTS.md. Each
// BenchmarkEn corresponds to experiment En; run all with
//
//	go test -bench=. -benchmem
package softsoa_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"softsoa/internal/broker"
	"softsoa/internal/coalition"
	"softsoa/internal/core"
	"softsoa/internal/integrity"
	"softsoa/internal/sccp"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
	"softsoa/internal/trust"
	"softsoa/internal/workload"
)

func fig1Problem() *core.Problem[float64] {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("X", core.LabelDomain("a", "b"))
	y := s.AddVariable("Y", core.LabelDomain("a", "b"))
	return core.NewProblem(s, x).Add(
		core.Unary(s, x, map[string]float64{"a": 1, "b": 9}),
		core.Binary(s, x, y, map[[2]string]float64{
			{"a", "a"}: 5, {"a", "b"}: 1, {"b", "a"}: 2, {"b", "b"}: 2,
		}),
		core.Unary(s, y, map[string]float64{"a": 5, "b": 5}),
	)
}

// BenchmarkE1Fig1WeightedCSP solves the Fig. 1 worked example.
func BenchmarkE1Fig1WeightedCSP(b *testing.B) {
	p := fig1Problem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solver.BranchAndBound(p)
		if res.Blevel != 7 {
			b.Fatalf("blevel = %v", res.Blevel)
		}
	}
}

// BenchmarkE2Fig5FuzzyAgreement rebuilds and combines the Fig. 5
// provider/client constraints. The store construction inside the loop
// is the measured operation — the experiment times an agreement round
// from empty store to blevel, not just the two Tells.
func BenchmarkE2Fig5FuzzyAgreement(b *testing.B) {
	s := core.NewSpace[float64](semiring.Fuzzy{})
	x := s.AddVariable("x", core.IntDomain(1, 9))
	cp := core.NewConstraint(s, []core.Variable{x}, func(a core.Assignment) float64 {
		return math.Max(0, math.Min(1, (a.Num(x)-1)/8))
	})
	cc := core.NewConstraint(s, []core.Variable{x}, func(a core.Assignment) float64 {
		return math.Max(0, math.Min(1, (9-a.Num(x))/8))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(s)
		st.Tell(cp)
		st.Tell(cc)
		if st.Blevel() != 0.5 {
			b.Fatal("agreement drifted")
		}
	}
}

const example1Src = `
semiring weighted.
var x in 0..10.
var spv1 in 0..1.
var spv2 in 0..1.
p1() :: tell(x + 5) -> tell(spv2 == 1) -> ask(spv1 == 1)->[10,2] success.
p2() :: tell(2 * x) -> tell(spv1 == 1) -> ask(spv2 == 1)->[4,1] success.
main :: p1() || p2().
`

const example2Src = `
semiring weighted.
var x in 0..10.
var spv1 in 0..1.
var spv2 in 0..1.
p1() :: tell(x + 5) -> tell(spv2 == 1) ->
        ask(spv1 == 1)->[10,2] retract(x + 3)->[10,2] success.
p2() :: tell(2 * x) -> tell(spv1 == 1) -> ask(spv2 == 1)->[4,1] success.
main :: p1() || p2().
`

const example3Src = `
semiring weighted.
var x in 0..10.
var y in 0..10.
main :: tell(x + 3) -> update{x}(y + 1) -> success.
`

func benchProgram(b *testing.B, src string, want sccp.Status) {
	b.Helper()
	compiled, err := sccp.ParseAndCompile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := compiled.NewMachine()
		status, err := m.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		if status != want {
			b.Fatalf("status = %v, want %v", status, want)
		}
	}
}

// BenchmarkE3Ex1TellNegotiation runs Example 1 (a failed SLA
// negotiation) end to end through the nmsccp machine.
func BenchmarkE3Ex1TellNegotiation(b *testing.B) {
	benchProgram(b, example1Src, sccp.Stuck)
}

// BenchmarkE4Ex2Retract runs Example 2 (retract relaxes the store).
func BenchmarkE4Ex2Retract(b *testing.B) {
	benchProgram(b, example2Src, sccp.Succeeded)
}

// BenchmarkE5Ex3Update runs Example 3 (update refreshes a variable).
func BenchmarkE5Ex3Update(b *testing.B) {
	benchProgram(b, example3Src, sccp.Succeeded)
}

// BenchmarkE6Fig8CrispIntegrity checks both Fig. 8 refinements.
func BenchmarkE6Fig8CrispIntegrity(b *testing.B) {
	s := integrity.NewCrispPhotoSpace()
	sys := integrity.CrispPhotoSystem(s)
	broken := sys.Clone()
	if err := broken.FailModule("REDF"); err != nil {
		b.Fatal(err)
	}
	mem := integrity.CrispMemoryRequirement(s)
	iface := []core.Variable{integrity.PhotoVars.Incomp, integrity.PhotoVars.Outcomp}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.Upholds(mem, iface...) || broken.Upholds(mem, iface...) {
			b.Fatal("integrity verdicts drifted")
		}
	}
}

// BenchmarkE7Fig8QuantIntegrity checks the quantitative analysis.
func BenchmarkE7Fig8QuantIntegrity(b *testing.B) {
	s := integrity.NewQuantPhotoSpace()
	sys := integrity.QuantPhotoSystem(s)
	req := integrity.MemoryProbRequirement(s, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.MeetsMin(req, integrity.PhotoVars.Outcomp, integrity.PhotoVars.Incomp) {
			b.Fatal("requirement verdict drifted")
		}
	}
}

// BenchmarkE8Fig9Coalitions forms the optimal stable 2-partition of
// the Fig. 9 network.
func BenchmarkE8Fig9Coalitions(b *testing.B) {
	net := coalition.Fig9Network()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := coalition.Exact(net, trust.Min, coalition.WithMaxCoalitions(2))
		if !res.Stable || len(res.Partition) != 2 {
			b.Fatal("partition drifted")
		}
	}
}

// BenchmarkE9Fig6BrokerNegotiation measures a full negotiate round
// trip against an in-process HTTP broker.
func BenchmarkE9Fig6BrokerNegotiation(b *testing.B) {
	srv := broker.NewServer(broker.DefaultLinkPenalty)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := broker.NewClient(ts.URL, ts.Client())
	err := client.Publish(context.Background(), &soa.Document{
		Service: "failmgmt", Provider: "p1", Region: "eu",
		Attributes: []soa.Attribute{{
			Name: "hours", Metric: soa.MetricCost,
			Base: 2, PerUnit: 0, Resource: "failures", MaxUnits: 10,
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	lower, upper := 4.0, 1.0
	req := broker.NegotiateRequest{
		Service: "failmgmt", Client: "bench", Metric: soa.MetricCost,
		Requirement: soa.Attribute{
			Metric: soa.MetricCost, Base: 0, PerUnit: 2, Resource: "failures", MaxUnits: 10,
		},
		Lower: &lower, Upper: &upper,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sla, err := client.Negotiate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if sla.AgreedLevel != 2 {
			b.Fatalf("agreed level = %v", sla.AgreedLevel)
		}
	}
}

// BenchmarkE10SolverScaling sweeps problem size × solver, including
// the pruning ablation.
func BenchmarkE10SolverScaling(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
			Vars: n, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: int64(n),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/exhaustive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.Exhaustive(p)
			}
		})
		b.Run(fmt.Sprintf("n=%d/bb", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p)
			}
		})
		b.Run(fmt.Sprintf("n=%d/bb-lookahead", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p, solver.WithLookahead())
			}
		})
		b.Run(fmt.Sprintf("n=%d/bb-noprune", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p, solver.WithoutPruning())
			}
		})
		b.Run(fmt.Sprintf("n=%d/ve", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.Eliminate(p)
			}
		})
	}
	chain, err := workload.ChainWeightedSCSP(16, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chain-n=16/ve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.Eliminate(chain)
		}
	})
}

// BenchmarkE11CompositionOptVsGreedy sweeps pipeline length ×
// algorithm.
func BenchmarkE11CompositionOptVsGreedy(b *testing.B) {
	for _, stages := range []int{2, 4, 6} {
		reg := soa.NewRegistry()
		params := workload.CatalogParams{
			Stages: stages, ProvidersPerStage: 6, Regions: 3, Seed: int64(stages) * 11,
		}
		if err := workload.CostCatalog(reg, params); err != nil {
			b.Fatal(err)
		}
		comp := broker.NewComposer(reg, broker.LinkPenalty{Cost: 8, Factor: 0.9})
		req := broker.PipelineRequest{
			Client: "bench", Stages: params.StageNames(), Metric: soa.MetricCost,
		}
		b.Run(fmt.Sprintf("k=%d/optimal", stages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := comp.Compose(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/greedy", stages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := comp.ComposeGreedy(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12CoalitionEncodings compares the direct partition solver
// with the §6.1 SCSP encoding.
func BenchmarkE12CoalitionEncodings(b *testing.B) {
	for _, n := range []int{3, 4} {
		net := trust.Random(n, 2, int64(n)*7)
		b.Run(fmt.Sprintf("n=%d/direct", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coalition.Exact(net, trust.Min, coalition.WithMaxCoalitions(2))
			}
		})
		b.Run(fmt.Sprintf("n=%d/scsp", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coalition.SolveViaSCSP(net, trust.Min, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13SemiringOps measures the raw algebra.
func BenchmarkE13SemiringOps(b *testing.B) {
	w, f, pr := semiring.Weighted{}, semiring.Fuzzy{}, semiring.Probabilistic{}
	set := semiring.NewSet("a", "b", "c", "d", "e", "f", "g", "h")
	prod := semiring.NewProduct[float64, float64](w, pr)
	var sink float64
	var bsink semiring.Bitset
	var psink semiring.Pair[float64, float64]
	b.Run("weighted/times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = w.Times(float64(i&7), 3)
		}
	})
	b.Run("weighted/div", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = w.Div(float64(i&7), 3)
		}
	})
	b.Run("fuzzy/times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Times(float64(i&7)/8, 0.5)
		}
	})
	b.Run("probabilistic/times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = pr.Times(float64(i&7)/8, 0.5)
		}
	})
	b.Run("set/times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bsink = set.Times(semiring.Bitset(i), semiring.Bitset(i>>1))
		}
	})
	b.Run("product/times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psink = prod.Times(semiring.P(float64(i&7), 0.5), semiring.P(3.0, 0.5))
		}
	})
	_, _, _ = sink, bsink, psink
}

// BenchmarkE14InterpreterThroughput measures nmsccp transitions per
// second on a tell/retract ping-pong. The machine built per iteration
// is intentional: a run consumes the machine, so construction belongs
// to the measured cost of executing 100 transitions.
func BenchmarkE14InterpreterThroughput(b *testing.B) {
	s := core.NewSpace[float64](semiring.Weighted{})
	x := s.AddVariable("x", core.IntDomain(0, 10))
	c := core.NewConstraint(s, []core.Variable{x}, func(a core.Assignment) float64 { return a.Num(x) })
	defs := sccp.Defs[float64]{}
	defs.Declare("pingpong", 0, func([]core.Variable) sccp.Agent[float64] {
		return sccp.Tell[float64]{C: c, Next: sccp.Retract[float64]{C: c, Next: sccp.Call[float64]{Name: "pingpong"}}}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sccp.NewMachine[float64](s, sccp.Call[float64]{Name: "pingpong"}, sccp.WithDefs[float64](defs))
		if _, err := m.Run(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Propagation measures propagation cost and its effect on
// branch-and-bound search.
func BenchmarkE15Propagation(b *testing.B) {
	p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 9, DomainSize: 3, Density: 0.7, Tightness: 1, Seed: 27,
	})
	if err != nil {
		b.Fatal(err)
	}
	q, _, _ := solver.Propagate(p, 0)
	b.Run("propagate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.Propagate(p, 0)
		}
	})
	b.Run("bb-original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.BranchAndBound(p)
		}
	})
	b.Run("bb-propagated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.BranchAndBound(q)
		}
	})
	b.Run("bb-with-propagation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.BranchAndBound(p, solver.WithPropagation(0))
		}
	})
}

// BenchmarkE16CoalitionAnneal compares exact and annealed coalition
// formation.
func BenchmarkE16CoalitionAnneal(b *testing.B) {
	for _, n := range []int{8, 10} {
		net := trust.Random(n, 2, int64(n))
		b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coalition.Exact(net, trust.Min, coalition.WithMaxCoalitions(2))
			}
		})
		b.Run(fmt.Sprintf("n=%d/anneal", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coalition.Anneal(net, trust.Min,
					coalition.AnnealParams{Seed: int64(n)}, coalition.WithMaxCoalitions(2))
			}
		})
	}
	big := trust.Random(18, 3, 99)
	b.Run("n=18/anneal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coalition.Anneal(big, trust.Min,
				coalition.AnnealParams{Seed: 99, Steps: 4000}, coalition.WithMaxCoalitions(3))
		}
	})
}

// BenchmarkE17MultiObjective measures Pareto-frontier composition
// over the cost × reliability product semiring.
func BenchmarkE17MultiObjective(b *testing.B) {
	reg := soa.NewRegistry()
	for s := 0; s < 3; s++ {
		for j := 0; j < 5; j++ {
			cost := float64(2 + (s*5+j)%16)
			rel := 75 + cost
			doc := &soa.Document{
				Service:  fmt.Sprintf("stage%d", s),
				Provider: fmt.Sprintf("prov-%d-%d", s, j),
				Region:   fmt.Sprintf("region%d", (s+j)%2),
				Attributes: []soa.Attribute{
					{Name: "fee", Metric: soa.MetricCost, Base: cost, Resource: "load", MaxUnits: 2},
					{Name: "uptime", Metric: soa.MetricReliability, Base: rel, Resource: "load", MaxUnits: 2},
				},
			}
			if err := reg.Publish(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	comp := broker.NewComposer(reg, broker.LinkPenalty{Cost: 6, Factor: 0.92})
	req := broker.PipelineRequest{
		Client: "bench", Stages: []string{"stage0", "stage1", "stage2"}, Metric: soa.MetricCost,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frontier, err := comp.ComposeMultiObjective(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(frontier) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
