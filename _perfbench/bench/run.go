// Package bench runs one benchmark workload end to end: it boots the
// broker in its production configuration, offers the workload's
// open-loop traffic, checks every answer against a cold oracle,
// crash-restarts the broker to check durability, searches the
// capacity ladder, and reports end-to-end metrics. With tracing on it
// then also runs the workload against the traced server binary and
// reports per-layer metrics.
package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
	"softsoa/perfbench/gen"
	"softsoa/perfbench/work"
)

var inf = math.Inf(1)

const (
	// A run repeats set-up and crash recovery, each at least min times
	// and until the repeats have taken budget, at most max times; the
	// medians are setup_s and recovery_s. Repeats are cheap where the
	// step is short and noisy, few where it is long.
	minSetups, maxSetups, setupBudget       = 11, 31, 5 * time.Second
	minRestarts, maxRestarts, restartBudget = 5, 9, 2 * time.Second
	// warmSpan is the unmeasured traffic before the timed phase.
	warmSpan = time.Second
	// rungSpan is the length of one capacity-ladder rung, rungPause the
	// idle time before it, and gallop the ladder stride of the climb
	// (eight 5% rungs, about 1.5x).
	rungSpan  = 2 * time.Second
	rungPause = 250 * time.Millisecond
	gallop    = 8
	// requestTimeout bounds one request.
	requestTimeout = 10 * time.Second
)

// config is one invocation.
type config struct {
	workload *work.Workload
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding brokerd and tracedd
	dir      string // working directory for state, logs and dumps
	workers  int
	out      io.Writer // human-readable report
	// tamper injects wrong answers (tests only).
	tamper func(route string, a work.Answer) work.Answer
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Main parses the command line, runs the workload and prints the
// report and the result line. It returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(work.Names, ", "))
	seed := fs.Int64("seed", 1, "seed for the request stream")
	seconds := fs.Int("seconds", 10, "length of the timed phase at the reference rate")
	trace := fs.Int("trace", 0, "1 runs the traced server and reports per-layer metrics")
	bin := fs.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the brokerd and tracedd binaries")
	dir := fs.String("dir", ".bench_build", "directory for state, logs and trace dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := work.Get(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, dir: runDir, workers: runtime.NumCPU(), out: stdout,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v (logs kept in %s)\n", w.Name, err, runDir)
		return 1
	}
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(stderr, "perfbench: clean up:", err)
	}
	if err := declared(res, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spec is the benchmark description, at the root of the checkout the
// benchmark runs from.
const spec = "BENCHMARK.json"

// declared keeps in the result exactly the metrics the benchmark
// description lists for the mode: its end-to-end metrics untraced,
// its per-layer metrics traced. A listed metric the run did not
// produce is an error.
func declared(res *result, traced bool) error {
	raw, err := os.ReadFile(spec)
	if err != nil {
		return fmt.Errorf("read benchmark description: %w", err)
	}
	var desc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		return fmt.Errorf("decode benchmark description: %w", err)
	}
	list := desc.EndToEnd
	if traced {
		list = desc.PerLayer
	}
	kept := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("the run produced no %s, which %s lists", m.Name, spec)
		}
		kept[m.Name] = v
	}
	res.Metrics = kept
	return nil
}

// run is one invocation; an error means no result could be produced.
func run(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	env, err := probeEnvironment(cfg.dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "workload %s (seed %d, %ds at %.0f/s reference rate): %s\n",
		w.Name, cfg.seed, cfg.seconds, w.RefRate, w.Why)
	fmt.Fprintf(cfg.out, "environment: %s; latencies are this shared sandbox's, not a device's\n", env)

	r := &runner{cfg: cfg, w: w, res: &result{Correct: true, Metrics: map[string]metric{}}, lapped: time.Now()}
	r.pool = w.PoolRequests(cfg.seed)
	r.checker, err = work.NewChecker(w, r.pool)
	if err != nil {
		return nil, err
	}
	r.predictIDs()
	timer, err := r.noopProbe(ctx)
	if err != nil {
		return nil, err
	}
	r.lap("no-op probe")
	plain, err := r.endToEnd(ctx, timer)
	if err == nil && cfg.trace {
		err = r.traced(ctx, plain)
	}
	if err != nil {
		return nil, err
	}
	r.printf("timing: %s\n", strings.Join(r.laps, ", "))
	return r.res, nil
}

type runner struct {
	cfg     config
	w       *work.Workload
	res     *result
	pool    []*broker.NegotiateRequest
	checker *work.Checker
	// acked holds the newest acknowledged agreement per SLA id.
	acked map[string]*soa.SLA
	// ids are the pool's SLA ids, predicted before boot and confirmed
	// by set-up.
	ids []string
	// boots numbers server launches, for log names.
	boots int
	// noopP50 is the generator's latency p50 against a no-op target.
	noopP50 float64
	// laps times the run's steps, for the closing timing line.
	laps   []string
	lapped time.Time
}

// lap records how long the step just finished took.
func (r *runner) lap(step string) {
	now := time.Now()
	r.laps = append(r.laps, fmt.Sprintf("%s %.1fs", step, now.Sub(r.lapped).Seconds()))
	r.lapped = now
}

func (r *runner) put(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *runner) printf(format string, args ...any) { fmt.Fprintf(r.cfg.out, format, args...) }

// invalid records a run whose figures cannot be trusted; it exits
// non-zero like a wrong answer.
func (r *runner) invalid(format string, args ...any) {
	r.res.Correct = false
	r.printf("INVALID: "+format+"\n", args...)
}

// wrongAnswer records a correctness failure; the run exits non-zero.
func (r *runner) wrongAnswer(format string, args ...any) {
	r.res.Correct = false
	r.printf("WRONG: "+format+"\n", args...)
}

// boot launches brokerd (or the traced binary) on a fresh or existing
// state directory.
func (r *runner) boot(traced bool, addr, state string) (*server, error) {
	r.boots++
	bin := filepath.Join(r.cfg.bin, "brokerd")
	args := []string{"-failover", "-state-dir", state}
	if traced {
		// tracedd always fails over, as brokerd -failover does.
		bin = filepath.Join(r.cfg.bin, "tracedd")
		args = []string{"-state-dir", state, "-dump", filepath.Join(r.cfg.dir, fmt.Sprintf("trace-%d.json", r.boots))}
	}
	return start(bin, addr, state, filepath.Join(r.cfg.dir, fmt.Sprintf("server-%d.log", r.boots)), args...)
}

// setUp boots a server on an empty state directory, publishes the
// catalogue and negotiates the SLA pool, returning the server, the
// seconds it all took and the seconds until the server was healthy.
func (r *runner) setUp(ctx context.Context, traced bool, s *sender, addr string) (*server, float64, float64, error) {
	state, err := os.MkdirTemp(r.cfg.dir, "state-")
	if err != nil {
		return nil, 0, 0, err
	}
	publish := make([]work.Request, len(r.w.Docs))
	for i := range r.w.Docs {
		if publish[i], err = work.PublishRequest(&r.w.Docs[i]); err != nil {
			return nil, 0, 0, err
		}
	}
	pool := make([]work.Request, len(r.pool))
	for i, nr := range r.pool {
		if pool[i], err = work.Materialise(work.Op{Route: work.RouteNegotiate, Pool: -1, Negotiate: nr}, nil); err != nil {
			return nil, 0, 0, err
		}
	}
	answers := make([]work.Answer, len(pool))
	r.acked = map[string]*soa.SLA{}

	t0 := time.Now()
	srv, err := r.boot(traced, addr, state)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := srv.waitHealthy(s.client, 30*time.Second); err != nil {
		//lint:ignore errcheck the boot already failed
		srv.kill()
		return nil, 0, 0, err
	}
	healthy := time.Since(t0).Seconds()
	for i, req := range publish {
		a := s.do(ctx, req, fmt.Sprintf("publish-%d", i))
		if a.Err != nil || a.Status != http.StatusCreated {
			//lint:ignore errcheck the set-up already failed
			srv.kill()
			return nil, 0, 0, fmt.Errorf("publish %s: status %d %v %s", r.w.Docs[i].Provider, a.Status, a.Err, a.Body)
		}
	}
	for i, req := range pool {
		answers[i] = s.do(ctx, req, fmt.Sprintf("pool-%d", i))
	}
	elapsed := time.Since(t0).Seconds()

	// A fresh broker: only the pool is acknowledged so far. The pool's
	// answers are checked like any other; their ids must be
	// the ones the streams were materialised against.
	for i, a := range answers {
		op := work.Op{Route: work.RouteNegotiate, Pool: -1, Negotiate: r.pool[i]}
		v := r.checker.Check(op, "", a)
		if v.Outcome != work.OK {
			//lint:ignore errcheck the set-up already failed
			srv.kill()
			return nil, 0, 0, fmt.Errorf("pool negotiation %d: %s %s", i, v.Outcome, v.Reason)
		}
		if v.SLA.ID != r.ids[i] {
			//lint:ignore errcheck the set-up already failed
			srv.kill()
			return nil, 0, 0, fmt.Errorf("pool negotiation %d got id %s, want %s", i, v.SLA.ID, r.ids[i])
		}
		r.acked[v.SLA.ID] = v.SLA
	}
	return srv, elapsed, healthy, nil
}

// predictIDs fills the pool ids a fresh broker mints for the pool
// negotiations, in order.
func (r *runner) predictIDs() {
	r.ids = make([]string, len(r.pool))
	for i := range r.ids {
		r.ids[i] = fmt.Sprintf("sla-%d", i+1)
	}
}

// trackAcks keeps the newest agreement each answer acknowledged.
func (r *runner) trackAcks(p *phase) {
	for _, v := range p.verdicts {
		if v.SLA == nil {
			continue
		}
		if old, ok := r.acked[v.SLA.ID]; !ok || v.SLA.Version > old.Version {
			r.acked[v.SLA.ID] = v.SLA
		}
	}
}

// offer draws and runs one phase; verify checks it afterwards, so
// the oracle's work never overlaps the measurement.
func (r *runner) offer(ctx context.Context, s *sender, name string, rate float64, span, abandon time.Duration) (*phase, error) {
	p, err := newPhase(r.w, r.cfg.seed, name, rate, span, r.ids)
	if err != nil {
		return nil, err
	}
	s.tamper = r.cfg.tamper
	p.run(ctx, s, abandon)
	return p, nil
}

// verify checks every answer of a phase and tracks what it
// acknowledged; a wrong answer fails the run.
func (r *runner) verify(p *phase) tally {
	p.check(r.checker, r.cfg.workers)
	t := p.tally()
	if t.wrong > 0 {
		r.wrongAnswer("%s: %d wrong answers of %d; first: %s", p.name, t.wrong, t.attempted, t.firstWrong)
	}
	r.trackAcks(p)
	return t
}

// noopProbe runs the reference schedule for one second against an
// in-process server that answers at once: the latency it reports is
// the generator's own timer and client error.
func (r *runner) noopProbe(ctx context.Context) (gen.Lateness, error) {
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		//lint:ignore errcheck the no-op target discards its input
		io.Copy(io.Discard, req.Body)
		w.WriteHeader(http.StatusOK)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return gen.Lateness{}, fmt.Errorf("no-op target: %w", err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		//lint:ignore errcheck the probe server is torn down best-effort
		srv.Close()
		<-served
	}()
	p, err := newPhase(r.w, r.cfg.seed, "noop", r.w.RefRate, time.Second, r.ids)
	if err != nil {
		return gen.Lateness{}, err
	}
	s := newSender(addr, r.cfg.workers, requestTimeout)
	defer s.close()
	p.run(ctx, s, 0)
	lat := p.latencies(nil)
	acc := gen.Account(p.samples)
	r.noopP50 = gen.Quantile(lat, 0.5)
	r.printf("generator timer error against a no-op target: latency p50 %.3f ms p99 %.3f ms, lateness p50 %.3f ms (%d samples)\n",
		r.noopP50, gen.Quantile(lat, 0.99), acc.P50, len(lat))
	return acc, nil
}
