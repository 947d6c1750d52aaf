package bench

import (
	"context"
	"encoding/xml"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"softsoa/internal/soa"
	"softsoa/perfbench/gen"
	"softsoa/perfbench/work"
)

// endToEnd measures the workload against brokerd exactly as it ships:
// default flags plus -failover and a fresh -state-dir. It returns the
// timed phase.
func (r *runner) endToEnd(ctx context.Context, timer gen.Lateness) (*phase, error) {
	w := r.w
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := newSender(addr, r.cfg.workers, requestTimeout)
	defer s.close()

	var setupTimes, bootTimes []float64
	var srv *server
	for began := time.Now(); ; {
		sv, secs, boot, err := r.setUp(ctx, false, s, addr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupTimes)+1, err)
		}
		setupTimes = append(setupTimes, secs)
		bootTimes = append(bootTimes, boot)
		if !again(len(setupTimes), minSetups, maxSetups, time.Since(began), setupBudget) {
			srv = sv
			break
		}
		if err := sv.kill(); err != nil {
			return nil, err
		}
		s.close()
		// Removing the discarded state at once keeps its unwritten
		// pages from being flushed under the next set-up's fsyncs.
		if err := os.RemoveAll(sv.dir); err != nil {
			return nil, err
		}
	}
	r.lap("set-ups")
	defer func() {
		//lint:ignore errcheck the run is over; a stop failure changes no figure
		srv.kill()
	}()

	warm, err := r.offer(ctx, s, "warm", w.RefRate, warmSpan, 5*time.Second)
	if err != nil {
		return nil, err
	}
	before, err := scrapeMetrics(ctx, s.client, addr)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, host0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	span := time.Duration(r.cfg.seconds) * time.Second
	ref, err := r.offer(ctx, s, "ref", w.RefRate, span, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal1, host1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(ctx, s.client, addr)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	r.lap("warm+timed phase")
	r.verify(warm)
	t := r.verify(ref)
	r.lap("checks")
	r.res.Attempted = t.attempted
	r.res.Failed = t.failed + t.wrong

	lat := ref.latencies(nil)
	reads := ref.latencies(work.Read)
	acc := gen.Account(ref.samples)
	p50, p99 := gen.Quantile(lat, 0.5), gen.Quantile(lat, 0.99)
	if !gen.Supports(len(lat), 0.99) {
		return nil, fmt.Errorf("%d samples do not support p99; raise -seconds", len(lat))
	}

	recovery, restarts, srv2, err := r.recover(ctx, s, srv, addr)
	srv = srv2
	if err != nil {
		return nil, err
	}
	r.lap("recovery")
	if p99 > w.LimitMS || t.errorRatio() > 0.01 || acc.Grows(w.LimitMS/4) {
		r.printf("WARNING: the reference rate itself breaks the capacity conditions\n")
	}
	capacity, rung, err := r.capacity(ctx, s)
	if err != nil {
		return nil, err
	}
	r.lap("capacity ladder")

	// BENCHMARK.json bounds the steady ones as end-to-end metrics and
	// lists the others, whose spread no bound holds on a shared host,
	// as unbounded metrics of the traced run; declared keeps the ones
	// the mode reports.
	readP99 := 0.0
	if len(reads) > 0 {
		readP99 = gen.Quantile(reads, 0.99)
	}
	cpuPerReq := float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(ref.samples))
	r.put("setup_s", median(setupTimes), "s")
	r.put("peak_rss_mb", rss, "MiB")
	r.put("proc.cpu_ms_per_req", cpuPerReq, "ms")
	r.put("p50_ms", p50, "ms")
	r.put("p99_ms", p99, "ms")
	r.put("read_p99_ms", readP99, "ms")
	r.put("capacity_rps", capacity, "1/s")
	r.put("error_ratio", t.errorRatio(), "ratio")
	r.put("recovery_s", recovery, "s")

	r.printf("end-to-end, brokerd -failover -state-dir, reference rate %.0f/s for %v:\n", w.RefRate, span)
	r.printf("  %-19s %10.4f s    median of %d set-ups %v; boot to healthy median %.4f s\n", "setup_s",
		median(setupTimes), len(setupTimes), round(setupTimes), median(bootTimes))
	r.printf("  %-19s %10.4f ms   %d samples, latency from due\n", "p50_ms", p50, len(lat))
	r.printf("  %-19s %10.4f ms   %d samples beyond it\n", "p99_ms", p99, len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	if len(reads) > 0 {
		r.printf("  %-19s %10.4f ms   %d read samples (get-sla, compliance)%s\n", "read_p99_ms",
			readP99, len(reads), support(len(reads)))
	} else {
		r.printf("  %-19s %10d      no reads in this workload\n", "read_p99_ms", 0)
	}
	r.printf("  %-19s %10.2f 1/s  completed when offered well beyond the highest rung held, %.0f/s (p99 limit %.0f ms)\n", "capacity_rps", capacity, rung, w.LimitMS)
	r.printf("  %-19s %10.6f      %d failed of %d attempted (%d correct 409s)%s\n", "error_ratio", t.errorRatio(),
		t.failed+t.wrong, t.attempted, t.noAgreement, t.first())
	r.printf("  %-19s %10.4f s    median of %d SIGKILL restarts\n", "recovery_s", recovery, restarts)
	r.printf("  %-19s %10.2f MiB  VmHWM after the timed phase\n", "peak_rss_mb", rss)
	r.printf("  %-19s %10.4f ms   brokerd user+system CPU over the timed phase, per request\n", "proc.cpu_ms_per_req", cpuPerReq)
	r.printf("load: offered %.1f/s achieved %.1f/s, lateness p50 %.3f ms p99 %.3f ms, queue max %d, no-op timer p50 %.3f ms (lateness %.3f ms)\n",
		float64(len(ref.samples))/span.Seconds(), ref.achieved(), acc.P50, acc.P99, acc.QueueMax, r.noopP50, timer.P50)
	r.printf("host: other guests took %.1f%% of this machine's CPU time over the timed phase (steal)\n",
		100*ratio(float64(steal1-steal0), float64(host1-host0)))
	if acc.P50 > p50/4 {
		r.printf("WARNING: generator lateness p50 %.3f ms is large against p50 %.3f ms; the run is not valid\n", acc.P50, p50)
	}
	r.printf("counters from /v1/metrics over the timed phase: wal_records=%.0f snapshots=%.0f failovers=%.0f cache_hits=%.0f cache_misses=%.0f\n",
		delta(before, after, "broker_wal_records_total"), delta(before, after, "broker_snapshots_total"),
		delta(before, after, "broker_failovers_total"), delta(before, after, "cache_hits_total"),
		delta(before, after, "cache_misses_total"))
	return ref, nil
}

// recover reads every acknowledged SLA back, then crash-restarts the
// broker on its state directory as often as again allows; after each
// restart every one of them must come back with the same version,
// provider, level and resources. It returns the median restart time
// and the count.
func (r *runner) recover(ctx context.Context, s *sender, srv *server, addr string) (float64, int, *server, error) {
	// Nothing changes the state between restarts: a restarted broker is
	// killed long before its first SLO sweep.
	want, err := r.readBack(ctx, s, addr, true)
	if err != nil {
		return 0, 0, srv, err
	}
	var times []float64
	for k, began := 0, time.Now(); k == 0 || again(k, minRestarts, maxRestarts, time.Since(began), restartBudget); k++ {
		if err := srv.kill(); err != nil {
			return 0, 0, srv, err
		}
		s.close()
		t0 := time.Now()
		next, err := r.boot(false, addr, srv.dir)
		if err != nil {
			return 0, 0, srv, err
		}
		srv = next
		if err := srv.waitHealthy(s.client, 120*time.Second); err != nil {
			return 0, 0, srv, err
		}
		times = append(times, time.Since(t0).Seconds())
		got, err := r.readBack(ctx, s, addr, false)
		if err != nil {
			return 0, 0, srv, err
		}
		lost := 0
		for id, w := range want {
			g, ok := got[id]
			if !ok || g.Version != w.Version || !work.Equal(g, w) {
				if lost == 0 {
					r.wrongAnswer("restart %d lost acknowledged SLA %s: had version %d %s, recovered %v",
						k+1, id, w.Version, work.Describe(w), describeOpt(g, ok))
				}
				lost++
			}
		}
		if lost > 0 {
			r.wrongAnswer("restart %d: %d of %d acknowledged SLAs not recovered", k+1, lost, len(want))
		}
	}
	return median(times), len(times), srv, nil
}

// again reports whether a repeated step runs once more after done
// repeats that took elapsed.
func again(done, min, max int, elapsed, budget time.Duration) bool {
	return done < min || (done < max && elapsed < budget)
}

func describeOpt(s *soa.SLA, ok bool) string {
	if !ok {
		return "nothing"
	}
	return fmt.Sprintf("version %d %s", s.Version, work.Describe(s))
}

// readBack GETs every acknowledged SLA. With check set, each must be
// at least as new as what the run acknowledged and, at the same
// version, identical; the answers become the new acknowledged state.
// The SLO reconciler may fail an SLA over between two reads, so the
// read repeats while its failover counter moves.
func (r *runner) readBack(ctx context.Context, s *sender, addr string, check bool) (map[string]*soa.SLA, error) {
	ids := make([]string, 0, len(r.acked))
	for id := range r.acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for attempt := 0; ; attempt++ {
		m0, err := scrapeMetrics(ctx, s.client, addr)
		if err != nil {
			return nil, err
		}
		got := make(map[string]*soa.SLA, len(ids))
		for _, id := range ids {
			status, body, err := get(ctx, s.client, "http://"+addr+"/v1/slas/"+id)
			if err != nil {
				return nil, fmt.Errorf("read back %s: %w", id, err)
			}
			if status != http.StatusOK {
				continue // reported as lost by the caller
			}
			var sla soa.SLA
			if err := xml.Unmarshal(body, &sla); err != nil {
				return nil, fmt.Errorf("read back %s: %w", id, err)
			}
			got[id] = &sla
		}
		m1, err := scrapeMetrics(ctx, s.client, addr)
		if err != nil {
			return nil, err
		}
		if delta(m0, m1, "broker_failovers_total") != 0 && attempt < 3 {
			continue
		}
		if check {
			for _, id := range ids {
				g, ok := got[id]
				a := r.acked[id]
				if !ok || g.Version < a.Version || (g.Version == a.Version && !work.Equal(g, a)) {
					r.wrongAnswer("acknowledged SLA %s (version %d %s) reads back as %s",
						id, a.Version, work.Describe(a), describeOpt(g, ok))
				}
			}
			for id, g := range got {
				r.acked[id] = g
			}
		}
		return got, nil
	}
}

// capacity climbs the workload's ladder from the reference rate
// (its first rung) eight rungs, about 1.5x, at a time until a rung
// breaks a condition: p99 beyond the latency limit, more than 1% of
// arrivals failed, or generator lateness growing. Climbing from below
// never overloads the broker by more than one step. One more rung,
// another step up, then offers well beyond what the broker holds; the
// rate at which it completes requests there is what it sustains on
// nproc connections. It returns that rate and the highest rung held.
func (r *runner) capacity(ctx context.Context, s *sender) (float64, float64, error) {
	w := r.w
	// An arrival this late already fails the rung; skipping it keeps an
	// overloaded rung from running on.
	abandon := min(time.Duration(4*w.LimitMS)*time.Millisecond, time.Second)
	top := len(w.Ladder) - 1
	probe := func(k int) (*phase, bool, error) {
		// A pause lets the previous rung's writeback and collection
		// settle before the next one is measured.
		time.Sleep(rungPause)
		p, err := r.offer(ctx, s, fmt.Sprintf("rung-%d", k), w.Ladder[k], rungSpan, abandon)
		if err != nil {
			return nil, false, err
		}
		t := r.verify(p)
		p99 := gen.Quantile(p.latencies(nil), 0.99)
		acc := gen.Account(p.samples)
		held := p99 <= w.LimitMS && t.errorRatio() <= 0.01 && !acc.Grows(w.LimitMS/4)
		r.printf("  rung %6.0f/s: completed %7.1f/s, p99 %8.3f ms, error ratio %.4f, late-third lateness %.3f ms -> %s\n",
			w.Ladder[k], p.achieved(), p99, t.errorRatio(), acc.Late, map[bool]string{true: "held", false: "broke"}[held])
		return p, held, nil
	}
	held := w.Ladder[0]
	k := 0
	for k < top {
		k = min(k+gallop, top)
		p, ok, err := probe(k)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		held = p.rate
		if k == top {
			r.printf("WARNING: the broker held the ladder's top rung; capacity_rps is a lower bound\n")
			return p.achieved(), held, nil
		}
	}
	p, _, err := probe(min(k+gallop, top))
	if err != nil {
		return 0, 0, err
	}
	return p.achieved(), held, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return gen.Quantile(s, 0.5)
}

func round(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

func support(n int) string {
	if gen.Supports(n, 0.99) {
		return ""
	}
	return fmt.Sprintf("; too few for p99, highest supported is p%g", 100*gen.HighestSupported(n))
}
