package bench

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"softsoa/perfbench/gen"
	"softsoa/perfbench/work"
)

// phase is one timed stretch of open-loop traffic at a fixed offered
// rate, with every answer kept for checking.
type phase struct {
	name    string
	rate    float64
	span    time.Duration
	ops     []work.Op
	reqs    []work.Request
	ids     []string // SLA id each op addresses ("" for none)
	samples []gen.Sample
	answers []work.Answer
	// verdicts is filled by check.
	verdicts []work.Verdict
	// start and end are the wall-clock bounds of the phase.
	start, end time.Time
}

// newPhase draws the phase's arrivals and ops from the run seed and
// the phase name, and materialises them against the pool ids.
func newPhase(w *work.Workload, seed int64, name string, rate float64, span time.Duration, ids []string) (*phase, error) {
	h := fnv.New64a()
	//lint:ignore errcheck hash writes cannot fail
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	due := gen.Schedule(rng, gen.Arrivals(rate, span), span)
	p := &phase{name: name, rate: rate, span: span, ops: w.Stream(rng, len(due))}
	p.reqs = make([]work.Request, len(p.ops))
	p.ids = make([]string, len(p.ops))
	for i, op := range p.ops {
		r, err := work.Materialise(op, ids)
		if err != nil {
			return nil, fmt.Errorf("phase %s op %d: %w", name, i, err)
		}
		p.reqs[i] = r
		if op.Pool >= 0 {
			p.ids[i] = ids[op.Pool]
		}
	}
	p.samples = make([]gen.Sample, len(due))
	for i := range due {
		p.samples[i].Due = due[i]
	}
	return p, nil
}

// sender issues requests over at most `workers` keep-alive
// connections.
type sender struct {
	base    string
	client  *http.Client
	workers int
	// tamper, when set, rewrites an answer before it is recorded; the
	// benchmark's own tests use it to inject wrong answers.
	tamper func(route string, a work.Answer) work.Answer
}

func newSender(addr string, workers int, timeout time.Duration) *sender {
	tr := &http.Transport{
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &sender{
		base:    "http://" + addr,
		client:  &http.Client{Transport: tr, Timeout: timeout},
		workers: workers,
	}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// do sends one request tagged with trace id and reads the answer.
func (s *sender) do(ctx context.Context, r work.Request, trace string) work.Answer {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, s.base+r.Path, body)
	if err != nil {
		return work.Answer{Err: err}
	}
	req.Header.Set(traceHeader, trace)
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/xml")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return work.Answer{Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return work.Answer{Err: fmt.Errorf("read answer: %w", err)}
	}
	return work.Answer{Status: resp.StatusCode, Body: b}
}

// traceHeader carries the generator's request id (the broker's
// X-Softsoa-Trace header).
const traceHeader = "X-Softsoa-Trace"

// errShed marks an arrival the generator dropped because it was
// already later than the abandon limit.
var errShed = fmt.Errorf("arrival abandoned: generator too far behind schedule")

// run offers the phase's arrivals open-loop. An arrival already later
// than abandon when its worker claims it is not sent and counts as a
// failure (0 disables); this bounds how long an overloaded capacity
// rung can run on.
func (p *phase) run(ctx context.Context, s *sender, abandon time.Duration) {
	p.answers = make([]work.Answer, len(p.ops))
	due := make([]time.Duration, len(p.samples))
	for i := range due {
		due[i] = p.samples[i].Due
	}
	clk := gen.NewWallClock()
	p.start = time.Now()
	p.samples = gen.Run(clk, due, s.workers, func(i int) {
		if abandon > 0 && clk.Now()-due[i] > abandon {
			p.answers[i] = work.Answer{Err: errShed}
			return
		}
		a := s.do(ctx, p.reqs[i], fmt.Sprintf("%s-%d", p.name, i))
		if s.tamper != nil {
			a = s.tamper(p.ops[i].Route, a)
		}
		p.answers[i] = a
	})
	p.end = time.Now()
}

// check classifies every answer on up to workers goroutines.
func (p *phase) check(c *work.Checker, workers int) {
	p.verdicts = make([]work.Verdict, len(p.answers))
	var wg sync.WaitGroup
	var next sync.Mutex
	i := 0
	claim := func() int {
		next.Lock()
		defer next.Unlock()
		i++
		return i - 1
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := claim()
				if k >= len(p.answers) {
					return
				}
				p.verdicts[k] = c.Check(p.ops[k], p.ids[k], p.answers[k])
			}
		}()
	}
	wg.Wait()
}

// tally counts outcomes.
type tally struct {
	attempted, noAgreement, failed, wrong int
	firstWrong, firstFailed               string
}

// first names the first failure, if any, for the report.
func (t tally) first() string {
	switch {
	case t.firstWrong != "":
		return "; first wrong: " + t.firstWrong
	case t.firstFailed != "":
		return "; first failure: " + t.firstFailed
	}
	return ""
}

func (p *phase) tally() tally {
	t := tally{attempted: len(p.verdicts)}
	for _, v := range p.verdicts {
		switch v.Outcome {
		case work.NoAgreement:
			t.noAgreement++
		case work.Failed:
			t.failed++
			if t.firstFailed == "" {
				t.firstFailed = v.Reason
			}
		case work.Wrong:
			t.wrong++
			if t.firstWrong == "" {
				t.firstWrong = v.Reason
			}
		}
	}
	return t
}

// errorRatio is failures (including wrong answers) over attempts.
func (t tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed+t.wrong) / float64(t.attempted)
}

// latencies returns the sorted latencies from due, in milliseconds,
// of the arrivals whose route passes the filter. A failed arrival
// counts as missing every limit, so it enters with +Inf.
func (p *phase) latencies(filter func(route string) bool) []float64 {
	var ds []time.Duration
	failedN := 0
	for i, s := range p.samples {
		if filter != nil && !filter(p.ops[i].Route) {
			continue
		}
		if p.verdicts != nil && (p.verdicts[i].Outcome == work.Failed || p.verdicts[i].Outcome == work.Wrong) {
			failedN++
			continue
		}
		ds = append(ds, s.Latency())
	}
	ms := gen.Millis(ds)
	for ; failedN > 0; failedN-- {
		ms = append(ms, inf)
	}
	sort.Float64s(ms)
	return ms
}

// achieved is completed arrivals per second over the phase's
// wall-clock span from its first due time to its last answer.
func (p *phase) achieved() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	last := time.Duration(0)
	done := 0
	for i, s := range p.samples {
		if s.Done > last {
			last = s.Done
		}
		if p.verdicts == nil || p.verdicts[i].Outcome == work.OK || p.verdicts[i].Outcome == work.NoAgreement {
			done++
		}
	}
	span := last - p.samples[0].Due
	if span <= 0 {
		return 0
	}
	return float64(done) / span.Seconds()
}
