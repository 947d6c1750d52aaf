package broker

import (
	"fmt"
	"sort"

	"softsoa/internal/core"
	"softsoa/internal/policy"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// qosPair is a point in the cost × reliability product semiring.
type qosPair = semiring.Pair[float64, float64]

// MultiChoice binds one stage in a multi-objective composition.
type MultiChoice struct {
	// Service is the abstract stage.
	Service string
	// Provider is the chosen provider.
	Provider string
	// Region is the provider's region.
	Region string
	// Cost and Reliability are the provider's standalone best levels.
	Cost        float64
	Reliability float64
}

// MultiComposition is one Pareto-optimal pipeline binding.
type MultiComposition struct {
	// Choices binds each stage, in order.
	Choices []MultiChoice
	// TotalCost is the end-to-end cost including link penalties.
	TotalCost float64
	// TotalReliability is the end-to-end success probability
	// including link penalties.
	TotalReliability float64
}

// ComposeMultiObjective solves the pipeline simultaneously for cost
// (weighted semiring) and reliability (probabilistic semiring) over
// their Cartesian product — "the cartesian product of multiple
// c-semirings is still a c-semiring" (Sec. 4). Because the product
// order is partial, the result is the Pareto frontier of
// non-dominated compositions: no returned composition is both
// cheaper and more reliable than another, and every dominated
// binding is excluded. Stages are restricted to providers
// advertising both metrics (and satisfying the capability policy, if
// any).
func (c *Composer) ComposeMultiObjective(req PipelineRequest) ([]MultiComposition, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}

	type cand struct {
		provider string
		region   string
		cost     float64
		rel      float64
	}
	hasPolicy := len(req.Capabilities.Must) > 0 || len(req.Capabilities.May) > 0
	if hasPolicy && c.vocab == nil {
		return nil, fmt.Errorf("broker: pipeline states a capability policy but the broker has no vocabulary")
	}

	cands := make([][]cand, len(req.Stages))
	for i, stage := range req.Stages {
		for _, d := range c.reg.Discover(stage) {
			costAttr, okC := d.Attr(soa.MetricCost)
			relAttr, okR := d.Attr(soa.MetricReliability)
			if !okC || !okR {
				continue
			}
			if hasPolicy {
				match, err := c.vocab.Evaluate(req.Capabilities, policy.Offer{Supports: d.Capabilities})
				if err != nil {
					return nil, err
				}
				if !match.Satisfied {
					continue
				}
			}
			cost, err := standaloneLevel(soa.MetricCost, costAttr)
			if err != nil {
				return nil, err
			}
			rel, err := standaloneLevel(soa.MetricReliability, relAttr)
			if err != nil {
				return nil, err
			}
			cands[i] = append(cands[i], cand{
				provider: d.Provider, region: d.Region, cost: cost, rel: rel,
			})
		}
		if len(cands[i]) == 0 {
			return nil, fmt.Errorf("broker: no providers with both cost and reliability for stage %q", stage)
		}
	}

	sr := semiring.NewProduct[float64, float64](semiring.Weighted{}, semiring.Probabilistic{})
	space := core.NewSpace[qosPair](sr)
	vars := make([]core.Variable, len(req.Stages))
	for i := range req.Stages {
		vars[i] = space.AddVariable(
			core.Variable(fmt.Sprintf("s%d", i)),
			core.IntDomain(0, len(cands[i])-1),
		)
	}
	p := core.NewProblem(space, vars...)
	for i := range req.Stages {
		i := i
		v := vars[i]
		p.Add(core.NewConstraint(space, []core.Variable{v}, func(a core.Assignment) qosPair {
			cd := cands[i][int(a.Num(v))]
			return semiring.P(cd.cost, cd.rel)
		}))
	}
	for i := 0; i+1 < len(req.Stages); i++ {
		i := i
		u, v := vars[i], vars[i+1]
		p.Add(core.NewConstraint(space, []core.Variable{u, v}, func(a core.Assignment) qosPair {
			if cands[i][int(a.Num(u))].region == cands[i+1][int(a.Num(v))].region {
				return sr.One()
			}
			return semiring.P(c.penalty.Cost, c.penalty.Factor)
		}))
	}

	// Propagation is not added here because the probabilistic
	// component of the product carrier makes cost shifting inexact.
	res := solver.BranchAndBound(p, solver.WithMaxBest(64))
	out := make([]MultiComposition, 0, len(res.Best))
	for _, sol := range res.Best {
		mc := MultiComposition{
			TotalCost:        sol.Value.First,
			TotalReliability: sol.Value.Second,
		}
		for i, v := range vars {
			cd := cands[i][int(sol.Assignment.Num(v))]
			mc.Choices = append(mc.Choices, MultiChoice{
				Service:     req.Stages[i],
				Provider:    cd.provider,
				Region:      cd.region,
				Cost:        cd.cost,
				Reliability: cd.rel,
			})
		}
		out = append(out, mc)
	}
	// Deterministic presentation: cheapest first.
	sort.Slice(out, func(a, b int) bool {
		if out[a].TotalCost != out[b].TotalCost {
			return out[a].TotalCost < out[b].TotalCost
		}
		return out[a].TotalReliability > out[b].TotalReliability
	})
	return out, nil
}

// standaloneLevel computes a provider attribute's best level over its
// own resource range.
func standaloneLevel(metric soa.Metric, attr soa.Attribute) (float64, error) {
	sr, err := soa.SemiringFor(metric)
	if err != nil {
		return 0, err
	}
	space := core.NewSpace[float64](sr)
	res := space.AddVariable(core.Variable(attr.Resource), attr.ResourceDomain())
	con, err := attr.ToConstraint(space, res)
	if err != nil {
		return 0, err
	}
	return core.Blevel(con), nil
}
