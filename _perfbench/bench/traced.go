package bench

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"softsoa/internal/broker"
	"softsoa/internal/soa"
	"softsoa/perfbench/gen"
	"softsoa/perfbench/spans"
	"softsoa/perfbench/work"
)

// reconcileMin and reconcileMax bound trace.reconcile_ratio: the
// layers' self times summed over the traced phase, which tracedd takes
// around the broker's handler chain, over the handler time the broker
// measures itself inside it. The outer timer cannot read less than the
// inner one (the minimum leaves room for the exposition's rounding).
// It reads more by the chain's work outside the inner timer (the
// per-request log line, trace recording, the timeout handler's
// buffering), about a fifth of the shortest requests' time; far more
// means the spans count time the broker never spent on the phase's
// requests, as a root recorded twice would. A traced run outside the
// bounds is invalid.
const reconcileMin, reconcileMax = 0.99, 1.5

// traced runs the reference phase of the workload again, on the same
// seed, against the traced binary, and reports its per-layer metrics
// beside plain, the untraced run's timed phase.
func (r *runner) traced(ctx context.Context, plain *phase) error {
	w := r.w
	span := time.Duration(r.cfg.seconds) * time.Second
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	s := newSender(addr, r.cfg.workers, requestTimeout)
	defer s.close()

	// Traced: same seed, same rate, same streams.
	tsrv, _, _, err := r.setUp(ctx, true, s, addr)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			//lint:ignore errcheck the run already failed
			tsrv.kill()
		}
	}()
	twarm, err := r.offer(ctx, s, "warm", w.RefRate, warmSpan, 5*time.Second)
	if err != nil {
		return err
	}
	rt0, err := readRuntime(ctx, s.client, addr)
	if err != nil {
		return err
	}
	before, err := scrapeMetrics(ctx, s.client, addr)
	if err != nil {
		return err
	}
	tref, err := r.offer(ctx, s, "ref", w.RefRate, span, 5*time.Second)
	if err != nil {
		return err
	}
	after, err := scrapeMetrics(ctx, s.client, addr)
	if err != nil {
		return err
	}
	rt1, err := readRuntime(ctx, s.client, addr)
	if err != nil {
		return err
	}
	s.close()
	stopped = true
	if err := tsrv.terminate(); err != nil {
		return err
	}
	r.verify(twarm)
	r.verify(tref)
	d, err := readDump(filepath.Join(r.cfg.dir, fmt.Sprintf("trace-%d.json", r.boots)))
	if err != nil {
		return err
	}

	l := &layers{r: r, plain: plain, ref: tref, d: d, before: before, after: after}
	l.load()
	l.http()
	if err := l.codec(); err != nil {
		return err
	}
	l.negotiate()
	l.cache()
	l.solver()
	l.store()
	l.slo()
	r.put("proc.gc_cycles", float64(rt1.NumGC-rt0.NumGC), "count")
	r.put("proc.heap_mb", float64(rt1.HeapInuse)/(1<<20), "MiB")
	l.trace()
	r.report()
	return nil
}

func readRuntime(ctx context.Context, cl *http.Client, addr string) (spans.Runtime, error) {
	var rt spans.Runtime
	status, body, err := get(ctx, cl, "http://"+addr+"/perfbench/runtime")
	if err != nil {
		return rt, fmt.Errorf("read runtime stats: %w", err)
	}
	if status != http.StatusOK {
		return rt, fmt.Errorf("read runtime stats: status %d", status)
	}
	if err := json.Unmarshal(body, &rt); err != nil {
		return rt, fmt.Errorf("read runtime stats: %w", err)
	}
	return rt, nil
}

func readDump(path string) (*spans.Dump, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read trace dump: %w", err)
	}
	var d spans.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("decode trace dump: %w", err)
	}
	return &d, nil
}

// report prints the per-layer metrics, sorted by name.
func (r *runner) report() {
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	r.printf("every metric, per-layer ones from the traced server at %.0f/s for %ds:\n", r.w.RefRate, r.cfg.seconds)
	for _, n := range names {
		m := r.res.Metrics[n]
		r.printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// layers turns one traced phase into per-layer metrics.
type layers struct {
	r             *runner
	plain, ref    *phase
	d             *spans.Dump
	before, after scrape
	// index maps a request id of the traced phase to its op index.
	index map[string]int
}

func (l *layers) put(name string, v float64, unit string) { l.r.put(name, v, unit) }

// op returns the op index of a traced-phase request id, or -1.
func (l *layers) op(id string) int {
	if l.index == nil {
		l.index = map[string]int{}
		for i := range l.ref.ops {
			l.index[fmt.Sprintf("%s-%d", l.ref.name, i)] = i
		}
	}
	if i, ok := l.index[id]; ok {
		return i
	}
	return -1
}

func (l *layers) requests() float64 { return float64(len(l.ref.ops)) }

func (l *layers) load() {
	p := l.plain
	acc := gen.Account(p.samples)
	l.put("load.offered_rps", float64(len(p.samples))/p.span.Seconds(), "1/s")
	l.put("load.achieved_rps", p.achieved(), "1/s")
	l.put("load.late_p50_ms", acc.P50, "ms")
	l.put("load.late_p99_ms", acc.P99, "ms")
	l.put("load.queue_max", float64(acc.QueueMax), "count")
	l.put("load.samples", float64(len(p.samples)), "count")
	l.put("load.noop_p50_ms", l.r.noopP50, "ms")
}

// http reports handler time per route from the root spans.
func (l *layers) http() {
	by := map[string][]time.Duration{}
	for _, root := range l.d.Roots {
		if i := l.op(root.ID); i >= 0 {
			route := l.ref.ops[i].Route
			by[route] = append(by[route], root.Dur())
		}
	}
	for _, route := range work.Routes {
		ms := gen.Millis(by[route])
		l.put("http."+route+".p50_ms", gen.Quantile(ms, 0.5), "ms")
		l.put("http."+route+".p99_ms", gen.Quantile(ms, 0.99), "ms")
	}
}

// spansOf groups the broker's spans by traced-phase op index.
func (l *layers) spansOf() map[int][]spans.Interval {
	out := map[int][]spans.Interval{}
	for _, sp := range l.d.Spans {
		if i := l.op(sp.ID); i >= 0 {
			out[i] = append(out[i], sp)
		}
	}
	return out
}

func (l *layers) negotiate() {
	var nmsccp, precheck time.Duration
	var runs, prechecks, providers, n int
	for i, reqSpans := range l.spansOf() {
		if l.ref.ops[i].Route != work.RouteNegotiate {
			continue
		}
		seen := map[string]bool{}
		for _, sp := range reqSpans {
			kind, provider, ok := strings.Cut(sp.Name, ":")
			if !ok {
				continue
			}
			switch kind {
			case "nmsccp":
				nmsccp += sp.Dur()
				runs++
			case "precheck":
				precheck += sp.Dur()
				prechecks++
			default:
				continue
			}
			if !seen[provider] {
				seen[provider] = true
				providers++
			}
		}
	}
	for _, op := range l.ref.ops {
		if op.Route == work.RouteNegotiate {
			n++
		}
	}
	per := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	l.put("negotiate.nmsccp_ms_per_req", per(float64(nmsccp)/float64(time.Millisecond)), "ms")
	l.put("negotiate.precheck_us_per_req", per(float64(precheck)/float64(time.Microsecond)), "us")
	l.put("negotiate.providers_per_req", per(float64(providers)), "count")
	l.put("negotiate.machine_runs_per_req", per(float64(runs)), "count")
	doomed := delta(l.before, l.after, "broker_negotiation_prechecks_doomed_total")
	l.put("negotiate.doomed_ratio", ratio(doomed, float64(prechecks)), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) cache() {
	for _, tier := range []string{"tables", "fixpoint", "search"} {
		label := `tier="` + tier + `"`
		hits := delta(l.before, l.after, "cache_hits_total", label)
		misses := delta(l.before, l.after, "cache_misses_total", label)
		l.put("cache."+tier+".hit_ratio", ratio(hits, hits+misses), "ratio")
	}
	l.put("cache.evictions_per_req", delta(l.before, l.after, "cache_evictions_total")/l.requests(), "count")
	applied := delta(l.before, l.after, "cache_warm_starts_total", `result="applied"`)
	fallback := delta(l.before, l.after, "cache_warm_starts_total", `result="fallback"`)
	l.put("cache.warm_applied_ratio", ratio(applied, applied+fallback), "ratio")
}

func (l *layers) solver() {
	var solves []time.Duration
	for _, reqSpans := range l.spansOf() {
		for _, sp := range reqSpans {
			if sp.Name == "solve" {
				solves = append(solves, sp.Dur())
			}
		}
	}
	ms := gen.Millis(solves)
	l.put("solver.solve_p50_ms", gen.Quantile(ms, 0.5), "ms")
	l.put("solver.solve_p99_ms", gen.Quantile(ms, 0.99), "ms")
	n := delta(l.before, l.after, "broker_solver_solves_total")
	for _, c := range []string{"nodes", "prunes", "tasks", "steals", "splits"} {
		l.put("solver."+c+"_per_solve", ratio(delta(l.before, l.after, "broker_solver_"+c+"_total"), n), "count")
	}
}

// inPhase keeps the intervals that started during the traced phase.
func (l *layers) inPhase(ivs []spans.Interval) []spans.Interval {
	lo, hi := l.ref.start.UnixNano(), l.ref.end.UnixNano()
	var out []spans.Interval
	for _, iv := range ivs {
		if iv.Start >= lo && iv.Start <= hi {
			out = append(out, iv)
		}
	}
	return out
}

func (l *layers) store() {
	appends := l.inPhase(l.d.Appends)
	var durs []time.Duration
	bytes := 0
	for _, a := range appends {
		durs = append(durs, a.Dur())
		bytes += a.Bytes
	}
	us := gen.Millis(durs)
	for i := range us {
		us[i] *= 1000
	}
	l.put("store.append_p50_us", gen.Quantile(us, 0.5), "us")
	l.put("store.append_p99_us", gen.Quantile(us, 0.99), "us")
	l.put("store.appends_per_req", float64(len(appends))/l.requests(), "count")
	l.put("store.bytes_per_req", float64(bytes)/l.requests(), "B")
	snaps := l.inPhase(l.d.Snapshots)
	maxMS, maxBytes := 0.0, 0
	for _, sn := range snaps {
		maxMS = max(maxMS, float64(sn.Dur())/float64(time.Millisecond))
		maxBytes = max(maxBytes, sn.Bytes)
	}
	l.put("store.snapshots", float64(len(snaps)), "count")
	l.put("store.snapshot_ms_max", maxMS, "ms")
	l.put("store.snapshot_bytes", float64(maxBytes), "B")
}

// slo reports the sweeps the traced binary timed over its whole life
// (they run every 10s, so a phase sees one or two) and the monitor,
// failover and breaker counters over the phase.
func (l *layers) slo() {
	var durs []time.Duration
	for _, sw := range l.d.Sweeps {
		durs = append(durs, sw.Dur())
	}
	ms := gen.Millis(durs)
	l.put("slo.sweep_ms_p50", gen.Quantile(ms, 0.5), "ms")
	maxMS := 0.0
	if len(ms) > 0 {
		maxMS = ms[len(ms)-1]
	}
	l.put("slo.sweep_ms_max", maxMS, "ms")
	l.put("slo.sweeps", float64(len(l.d.Sweeps)), "count")
	l.put("slo.at_risk_transitions", delta(l.before, l.after, "slo_at_risk_transitions_total", `direction="at_risk"`), "count")
	viol := delta(l.before, l.after, "broker_observations_total", `result="violation"`)
	l.put("monitor.violation_ratio", ratio(viol, delta(l.before, l.after, "broker_observations_total")), "ratio")
	for _, res := range []string{"rebound", "stuck", "slo_rebound"} {
		l.put("failover."+res, delta(l.before, l.after, "broker_failovers_total", `result="`+res+`"`), "count")
	}
	l.put("breaker.transitions", delta(l.before, l.after, "broker_breaker_transitions_total"), "count")
}

// layerOf names the layer a span belongs to.
func layerOf(name string) string {
	switch {
	case name == "root":
		return "http"
	case name == "parse":
		return "codec"
	case strings.HasPrefix(name, "precheck:"), strings.HasPrefix(name, "nmsccp:"):
		return "negotiate"
	case name == "sla-commit":
		return "commit"
	case name == "solve":
		return "solver"
	case name == "append", name == "snapshot":
		return "store"
	}
	return "other"
}

// selfLayers lists the layers whose self time is reported.
var selfLayers = []string{"http", "codec", "negotiate", "commit", "store", "solver"}

// trace builds each traced request's span tree (root, the broker's
// spans, and the store calls that fall inside exactly one request),
// computes self times, and reports them per layer together with the
// reconcile and overhead ratios.
func (l *layers) trace() {
	bySpan := l.spansOf()
	roots := map[int]spans.Interval{}
	var rootList []spans.Interval
	for _, root := range l.d.Roots {
		if i := l.op(root.ID); i >= 0 {
			root.Name = "root"
			roots[i] = root
			rootList = append(rootList, root)
		}
	}
	sort.Slice(rootList, func(a, b int) bool { return rootList[a].Start < rootList[b].Start })
	attached, unattributed := 0, 0
	storeCalls := append(l.inPhase(l.d.Appends), l.inPhase(l.d.Snapshots)...)
	for _, call := range storeCalls {
		owner := -1
		for _, root := range containing(rootList, call) {
			if owner >= 0 {
				owner = -2
				break
			}
			owner = l.op(root.ID)
		}
		if owner < 0 {
			unattributed++
			continue
		}
		name := "append"
		if call.Name == "snapshot" {
			name = "snapshot"
		}
		call.Name = name
		bySpan[owner] = append(bySpan[owner], call)
		attached++
	}

	self := map[string]time.Duration{}
	var handler time.Duration
	for i, root := range roots {
		handler += root.Dur()
		for name, d := range selfTimes(root, bySpan[i]) {
			self[layerOf(name)] += d
		}
	}
	n := float64(len(roots))
	for _, layer := range selfLayers {
		l.put("self."+layer+"_us_per_req", ratio(float64(self[layer])/float64(time.Microsecond), n), "us")
	}
	// The layers' self times add up to the handler time tracedd takes
	// around the broker's whole handler chain. The broker times each
	// request itself inside that chain (broker_http_request_seconds);
	// the two timers are independent, and the outer one may exceed the
	// inner only by the tracing and timeout wrappers' cost.
	var total time.Duration
	for _, d := range self {
		total += d
	}
	inner := delta(l.before, l.after, "broker_http_request_seconds_sum")
	for _, route := range []string{"/v1/metrics", "/v1/health"} {
		inner -= delta(l.before, l.after, "broker_http_request_seconds_sum", `route="`+route+`"`)
	}
	rec := ratio(total.Seconds(), inner)
	l.put("trace.reconcile_ratio", rec, "ratio")
	untraced := gen.Quantile(l.plain.latencies(nil), 0.5)
	traced := gen.Quantile(l.ref.latencies(nil), 0.5)
	l.put("trace.overhead_ratio", ratio(traced, untraced), "ratio")
	l.r.printf("trace: %d roots, %d broker spans in %d of %d traces kept, %d providers registered, %d store calls attached, %d unattributed; layer self times sum to %.4f of the broker's own handler time (tolerance %.2f to %.2f), spans below the handler cover %.4f of it; traced p50 %.3f ms vs untraced %.3f ms\n",
		len(roots), len(l.d.Spans), l.d.TracesKept, l.d.TracesTotal, l.d.Providers, attached, unattributed,
		rec, reconcileMin, reconcileMax, ratio(float64(total-self["http"]), float64(handler)), traced, untraced)
	if rec < reconcileMin || rec > reconcileMax {
		l.r.invalid("layer self times sum to %.4f of the broker's own handler time, outside %.2f to %.2f", rec, reconcileMin, reconcileMax)
	}
}

// containing returns the roots whose interval contains iv.
func containing(roots []spans.Interval, iv spans.Interval) []spans.Interval {
	var out []spans.Interval
	for _, r := range roots {
		if r.Start > iv.Start {
			break
		}
		if r.End >= iv.End {
			out = append(out, r)
		}
	}
	return out
}

// spanSlack absorbs the broker spans' microsecond truncation when
// deciding containment.
const spanSlack = 2 * time.Microsecond

// selfTimes returns each span's self time in one request's tree,
// summed by span name: its duration minus the union of its direct
// children's intervals. Children are assigned by containment.
func selfTimes(root spans.Interval, inner []spans.Interval) map[string]time.Duration {
	nodes := append([]spans.Interval{root}, inner...)
	sort.SliceStable(nodes, func(a, b int) bool {
		if nodes[a].Start != nodes[b].Start {
			return nodes[a].Start < nodes[b].Start
		}
		return nodes[a].End > nodes[b].End
	})
	children := make([][]spans.Interval, len(nodes))
	var stack []int
	for i, n := range nodes {
		for len(stack) > 0 {
			p := nodes[stack[len(stack)-1]]
			if n.Start >= p.Start-int64(spanSlack) && n.End <= p.End+int64(spanSlack) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			children[stack[len(stack)-1]] = append(children[stack[len(stack)-1]], n)
		}
		stack = append(stack, i)
	}
	out := map[string]time.Duration{}
	for i, n := range nodes {
		covered := union(n, children[i])
		out[n.Name] += n.Dur() - covered
	}
	return out
}

// union is the length of the children's intervals clipped to parent
// and merged.
func union(parent spans.Interval, kids []spans.Interval) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// codec reports the broker's own request decoding, from its parse
// spans (negotiate and compose requests carry one), and an estimate of
// response encoding: the answers the traced phase received, decoded
// and encoded again here with the broker's wire types the way it
// writes them (xml.MarshalIndent). The estimate runs outside the
// server, so a change to the broker's writeXML does not move it.
func (l *layers) codec() error {
	var parse, encode time.Duration
	parsed, bytes := 0, 0
	for _, reqSpans := range l.spansOf() {
		for _, sp := range reqSpans {
			if sp.Name == "parse" {
				parse += sp.Dur()
				parsed++
			}
		}
	}
	for i, op := range l.ref.ops {
		ans := l.ref.answers[i]
		bytes += len(l.ref.reqs[i].Body) + len(ans.Body)
		if out := answerType(op.Route, ans.Status); out != nil && ans.Err == nil {
			if err := xml.Unmarshal(ans.Body, out); err != nil {
				return fmt.Errorf("codec: decode %s answer: %w", op.Route, err)
			}
			t := time.Now()
			if _, err := xml.MarshalIndent(out, "", "  "); err != nil {
				return fmt.Errorf("codec: encode %s answer: %w", op.Route, err)
			}
			encode += time.Since(t)
		}
	}
	n := l.requests()
	l.put("codec.decode_us", ratio(float64(parse)/float64(time.Microsecond), float64(parsed)), "us")
	l.put("codec.encode_est_us", float64(encode)/float64(time.Microsecond)/n, "us")
	l.put("codec.bytes_per_req", float64(bytes)/n, "B")
	return nil
}

func answerType(route string, status int) any {
	switch {
	case status == http.StatusConflict:
		return &broker.FailureResponse{}
	case status != http.StatusOK:
		return nil
	case route == work.RouteObserve:
		return &broker.ObserveResponse{}
	case route == work.RouteCompliance:
		return &broker.MonitorReport{}
	}
	return &soa.SLA{}
}
