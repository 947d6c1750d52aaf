package broker

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// chainLevels are the few distinct standalone levels per metric that
// random chains draw from, so co-optimal bindings are common.
var chainLevels = map[soa.Metric][]float64{
	soa.MetricCost:        {1, 2.5, 4, 6},
	soa.MetricDowntime:    {0, 1, 2, 3},
	soa.MetricReliability: {0.9, 0.95, 0.99, 1},
	soa.MetricPreference:  {0.25, 0.5, 0.75, 1},
}

// fuzzyBindings caps the joint bindings of a preference chain. On a
// fuzzy chain most bindings tie at the optimum, no tie is pruned, and
// branch and bound visits nearly all of them, so larger chains are
// drawn again to keep the oracle's time bounded.
const fuzzyBindings = 1 << 14

// randomChain draws a pipeline of 1-10 stages with 1-12 candidates
// each, spread over two regions.
func randomChain(rng *rand.Rand, metric soa.Metric) (PipelineRequest, [][]candidate) {
	for {
		req, cands := drawChain(rng, metric)
		bindings := 1
		for _, cs := range cands {
			bindings *= len(cs)
			if bindings > fuzzyBindings {
				break
			}
		}
		if metric != soa.MetricPreference || bindings <= fuzzyBindings {
			return req, cands
		}
	}
}

func drawChain(rng *rand.Rand, metric soa.Metric) (PipelineRequest, [][]candidate) {
	levels := chainLevels[metric]
	req := PipelineRequest{Client: "c", Metric: metric}
	var cands [][]candidate
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		req.Stages = append(req.Stages, fmt.Sprintf("s%d", i))
		var cs []candidate
		for j, m := 0, 1+rng.Intn(12); j < m; j++ {
			cs = append(cs, candidate{
				provider: fmt.Sprintf("s%d-p%d", i, j),
				region:   []string{"eu", "us"}[rng.Intn(2)],
				level:    levels[rng.Intn(len(levels))],
			})
		}
		cands = append(cands, cs)
	}
	return req, cands
}

// TestChainMatchesBranchAndBound: on random tie-heavy chains the
// chain pass returns sequential branch and bound's answer on encode's
// problem, with the options Compose used to pass it (propagation for
// every metric but reliability): the same Total bits and the same
// binding, i.e. branch and bound's first optimum in visit order.
func TestChainMatchesBranchAndBound(t *testing.T) {
	c := NewComposer(soa.NewRegistry(), DefaultLinkPenalty)
	for _, metric := range []soa.Metric{soa.MetricCost, soa.MetricDowntime, soa.MetricReliability, soa.MetricPreference} {
		t.Run(string(metric), func(t *testing.T) {
			sr, err := soa.SemiringFor(metric)
			if err != nil {
				t.Fatal(err)
			}
			var opts []solver.Option
			if metric != soa.MetricReliability {
				opts = append(opts, solver.WithPropagation(0))
			}
			rng := rand.New(rand.NewSource(17))
			for n := 0; n < 2000; n++ {
				req, cands := randomChain(rng, metric)
				p, vars := c.encode(sr, req, cands)
				want := solver.BranchAndBound(p, opts...)
				ch := &chain{sr: sr, cands: cands, link: c.linkValue(metric)}
				picks, prefix := ch.solve()
				if len(want.Best) == 0 {
					if picks != nil {
						t.Fatalf("chain %d: picked %v, branch and bound found no solution", n, picks)
					}
					continue
				}
				if picks == nil {
					t.Fatalf("chain %d: no solution, branch and bound found %v", n, want.Best[0].Value)
				}
				best := want.Best[0]
				if got := prefix[len(prefix)-1]; math.Float64bits(got) != math.Float64bits(best.Value) {
					t.Fatalf("chain %d: total %v (%#x), branch and bound %v (%#x)",
						n, got, math.Float64bits(got), best.Value, math.Float64bits(best.Value))
				}
				for i, v := range vars {
					if k := int(best.Assignment.Num(v)); picks[i] != k {
						t.Fatalf("chain %d: stage %d picks candidate %d, branch and bound %d", n, i, picks[i], k)
					}
				}
			}
		})
	}
}
