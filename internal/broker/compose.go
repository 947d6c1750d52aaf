package broker

import (
	"fmt"
	"time"

	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/policy"
	"softsoa/internal/semiring"
	"softsoa/internal/soa"
	"softsoa/internal/solver"
)

// PipelineRequest asks the broker to "look for complex services by
// composing together simpler service interfaces": a pipeline of
// abstract stages, each to be bound to one registered provider,
// optimising the end-to-end metric.
type PipelineRequest struct {
	// Client names the requesting party.
	Client string
	// Stages are the abstract services, in pipeline order.
	Stages []string
	// Metric selects the optimisation semiring.
	Metric soa.Metric
	// Lower (a1) bounds the acceptable end-to-end level: for cost the
	// highest acceptable total, for reliability the lowest acceptable
	// product. nil accepts any consistent composition.
	Lower *float64
	// Capabilities is the client's MUST/MAY policy. Every stage is
	// restricted to providers supporting all MUST capabilities, so the
	// composed service (the intersection of the stages' capabilities)
	// supports them too.
	Capabilities policy.Requirement
}

// Validate checks the request.
func (r *PipelineRequest) Validate() error {
	if r.Client == "" {
		return fmt.Errorf("broker: pipeline request without client")
	}
	if len(r.Stages) == 0 {
		return fmt.Errorf("broker: empty pipeline")
	}
	if !r.Metric.Valid() {
		return fmt.Errorf("broker: unknown metric %q", r.Metric)
	}
	return nil
}

// StageChoice binds one pipeline stage to a provider.
type StageChoice struct {
	// Service is the abstract stage.
	Service string
	// Provider is the chosen provider.
	Provider string
	// Level is the provider's standalone QoS level at its best
	// resource allocation.
	Level float64
	// Region is the provider's region.
	Region string
}

// Composition is a solved pipeline binding.
type Composition struct {
	// Choices binds each stage, in order.
	Choices []StageChoice
	// Total is the end-to-end level including link penalties.
	Total float64
	// Nodes counts the work done: chain-pass cells for Compose,
	// search nodes for the exhaustive baseline, scored candidates for
	// the greedy one.
	Nodes int64
	// Elapsed is the solve time.
	Elapsed time.Duration
}

// LinkPenalty is the QoS cost of handing data between adjacent stages
// deployed in different regions.
type LinkPenalty struct {
	// Cost is added per cross-region hop (weighted metric).
	Cost float64
	// Factor multiplies reliability / lower-bounds preference per
	// cross-region hop ([0,1] metrics).
	Factor float64
}

// DefaultLinkPenalty matches a WAN hop: 5 cost units, 4% reliability
// loss.
var DefaultLinkPenalty = LinkPenalty{Cost: 5, Factor: 0.96}

// Composer solves pipeline compositions over a registry.
type Composer struct {
	reg     *soa.Registry
	penalty LinkPenalty
	vocab   *policy.Vocabulary
	filter  ProviderFilter
}

// ComposerOption configures a Composer.
type ComposerOption func(*Composer)

// WithComposerVocabulary equips the composer with a capability
// vocabulary, enabling MUST/MAY capability policies in pipeline
// requests.
func WithComposerVocabulary(v *policy.Vocabulary) ComposerOption {
	return func(c *Composer) { c.vocab = v }
}

// WithComposerProviderFilter gates stage candidates on the filter, so
// providers with an open circuit breaker are never bound into a
// pipeline. A nil filter admits everyone.
func WithComposerProviderFilter(f ProviderFilter) ComposerOption {
	return func(c *Composer) { c.filter = f }
}

// NewComposer returns a composer with the given link penalty.
func NewComposer(reg *soa.Registry, penalty LinkPenalty, opts ...ComposerOption) *Composer {
	c := &Composer{reg: reg, penalty: penalty}
	for _, o := range opts {
		o(c)
	}
	return c
}

// candidate is one provider option for a stage, with its standalone
// best level precomputed.
type candidate struct {
	provider string
	region   string
	level    float64
}

func (c *Composer) candidates(req PipelineRequest, stage string) ([]candidate, error) {
	metric := req.Metric
	hasPolicy := len(req.Capabilities.Must) > 0 || len(req.Capabilities.May) > 0
	if hasPolicy && c.vocab == nil {
		return nil, fmt.Errorf("broker: pipeline states a capability policy but the broker has no vocabulary")
	}
	docs := c.reg.Discover(stage)
	var out []candidate
	for _, d := range docs {
		if c.filter != nil {
			if ok, _ := c.filter(d.Provider); !ok {
				continue
			}
		}
		attr, ok := d.Attr(metric)
		if !ok {
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
		level, err := standaloneLevel(metric, attr)
		if err != nil {
			return nil, err
		}
		out = append(out, candidate{provider: d.Provider, region: d.Region, level: level})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("broker: no providers with a %q attribute for stage %q", metric, stage)
	}
	return out, nil
}

// encode builds the composition SCSP: one variable per stage whose
// domain indexes the stage's candidates; unary constraints score each
// candidate's level; binary constraints between adjacent stages apply
// the cross-region link penalty.
func (c *Composer) encode(
	sr semiring.Semiring[float64],
	req PipelineRequest,
	cands [][]candidate,
) (*core.Problem[float64], []core.Variable) {
	space := core.NewSpace[float64](sr)
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
		p.Add(core.NewConstraint(space, []core.Variable{v}, func(a core.Assignment) float64 {
			return cands[i][int(a.Num(v))].level
		}))
	}
	for i := 0; i+1 < len(req.Stages); i++ {
		i := i
		u, v := vars[i], vars[i+1]
		p.Add(core.NewConstraint(space, []core.Variable{u, v}, func(a core.Assignment) float64 {
			cu := cands[i][int(a.Num(u))]
			cv := cands[i+1][int(a.Num(v))]
			if cu.region == cv.region {
				return sr.One()
			}
			if req.Metric == soa.MetricCost || req.Metric == soa.MetricDowntime {
				return c.penalty.Cost
			}
			return c.penalty.Factor
		}))
	}
	return p, vars
}

// Compose solves the pipeline optimally and returns the SLA binding
// every stage, or a nil SLA when no composition meets the requested
// lower bound. The composition SCSP is a chain, so one pass over the
// stages solves it exactly (see chain).
func (c *Composer) Compose(req PipelineRequest) (*soa.SLA, *Composition, error) {
	return c.composeChain(req, nil)
}

// composeChain is Compose, journaling one solver event per bound
// stage into j when it is non-nil: depth is the number of stages
// bound, the value the binding's prefix level.
func (c *Composer) composeChain(req PipelineRequest, j *journal.Journal) (*soa.SLA, *Composition, error) {
	return c.compose(req, func(sr semiring.Semiring[float64], cands [][]candidate) ([]int, float64, int64) {
		ch := &chain{sr: sr, cands: cands, link: c.linkValue(req.Metric)}
		picks, prefix := ch.solve()
		if picks == nil {
			return nil, 0, ch.cells
		}
		if j != nil {
			for i, v := range prefix {
				j.RecordSearch(journal.Search{Kind: journal.Stage, Depth: int32(i + 1), Value: v})
			}
		}
		return picks, prefix[len(prefix)-1], ch.cells
	})
}

// ComposeExhaustive solves by full enumeration (the reference).
func (c *Composer) ComposeExhaustive(req PipelineRequest) (*soa.SLA, *Composition, error) {
	return c.compose(req, func(sr semiring.Semiring[float64], cands [][]candidate) ([]int, float64, int64) {
		p, vars := c.encode(sr, req, cands)
		res := solver.Exhaustive(p)
		if len(res.Best) == 0 {
			return nil, 0, res.Stats.Nodes
		}
		picks := make([]int, len(vars))
		for i, v := range vars {
			picks[i] = int(res.Best[0].Assignment.Num(v))
		}
		return picks, res.Best[0].Value, res.Stats.Nodes
	})
}

// ComposeGreedy is the baseline: it binds stages left to right,
// locally maximising the candidate level combined with the link
// penalty to the previously chosen stage. Fast, but blind to
// downstream penalties — experiment E11 quantifies the quality gap.
func (c *Composer) ComposeGreedy(req PipelineRequest) (*soa.SLA, *Composition, error) {
	return c.compose(req, func(sr semiring.Semiring[float64], cands [][]candidate) ([]int, float64, int64) {
		var scored int64
		picks := make([]int, len(cands))
		total := sr.One()
		for i, cs := range cands {
			bestScore := sr.Zero()
			for j, cand := range cs {
				scored++
				score := cand.level
				if i > 0 && cand.region != cands[i-1][picks[i-1]].region {
					score = sr.Times(score, c.linkValue(req.Metric))
				}
				if j == 0 || semiring.Gt(sr, score, bestScore) {
					bestScore, picks[i] = score, j
				}
			}
			total = sr.Times(total, bestScore)
		}
		return picks, total, scored
	})
}

// compose validates the request, gathers every stage's candidates and
// runs solve, which returns the chosen candidate of every stage (nil
// when no binding is consistent), their total and the work it did.
func (c *Composer) compose(
	req PipelineRequest,
	solve func(semiring.Semiring[float64], [][]candidate) (picks []int, total float64, work int64),
) (*soa.SLA, *Composition, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	sr, err := soa.SemiringFor(req.Metric)
	if err != nil {
		return nil, nil, err
	}
	cands := make([][]candidate, len(req.Stages))
	for i, stage := range req.Stages {
		if cands[i], err = c.candidates(req, stage); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	picks, total, work := solve(sr, cands)
	comp := &Composition{Total: total, Nodes: work, Elapsed: time.Since(start)}
	if picks == nil {
		return nil, comp, nil
	}
	for i, k := range picks {
		cand := cands[i][k]
		comp.Choices = append(comp.Choices, StageChoice{
			Service:  req.Stages[i],
			Provider: cand.provider,
			Level:    cand.level,
			Region:   cand.region,
		})
	}
	if req.Lower != nil && semiring.Lt(sr, comp.Total, *req.Lower) {
		return nil, comp, nil // best composition still below the bar
	}
	return compositionSLA(req, comp), comp, nil
}

func (c *Composer) linkValue(m soa.Metric) float64 {
	if m == soa.MetricCost || m == soa.MetricDowntime {
		return c.penalty.Cost
	}
	return c.penalty.Factor
}

func compositionSLA(req PipelineRequest, comp *Composition) *soa.SLA {
	sla := &soa.SLA{
		Service:     fmt.Sprintf("pipeline(%d stages)", len(req.Stages)),
		Client:      req.Client,
		Metric:      req.Metric,
		AgreedLevel: comp.Total,
	}
	for _, ch := range comp.Choices {
		sla.Providers = append(sla.Providers, ch.Provider)
	}
	return sla
}
