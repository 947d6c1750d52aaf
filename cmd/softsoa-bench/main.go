// Command softsoa-bench runs the repository's reproducible benchmark
// suite and writes a machine-readable JSON report: the E-series
// anchors (Fig. 1 search, solver scaling, propagation), the
// indexed-evaluation ablation behind PR 3, and the workload grid
// solved sequentially and in parallel to measure speedup.
//
// Usage:
//
//	softsoa-bench [-out BENCH_pr3.json] [-short] [-parallel N] [-cache]
//	softsoa-bench -scaling 1,2,4,8 [-out BENCH_pr9.json] [-short]
//
// With -scaling the suite is replaced by the work-stealing scaling
// table: every workload-grid instance is solved once per worker count
// with the full result (blevel, frontier values and assignments)
// asserted identical to the 1-worker reference before anything is
// timed, then timed per count with speedup, steal and split counters
// on each row.
//
// The report deliberately carries no timestamps or hostnames — only
// toolchain and shape metadata — so reruns on the same machine diff
// cleanly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
	"softsoa/internal/solver"
	"softsoa/internal/workload"
)

// Entry is one benchmark row.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Nodes and Prunes are the solver statistics of a single solve of
	// the instance (identical every run: the search is deterministic).
	Nodes  int64 `json:"nodes,omitempty"`
	Prunes int64 `json:"prunes,omitempty"`
	// Tasks, Steals and Splits are the work-stealing scheduler
	// counters of a single solve (0 for sequential rows). Unlike the
	// returned result they depend on scheduling timing, so they vary
	// run to run; the stamped values are one representative solve.
	Tasks  int64 `json:"tasks,omitempty"`
	Steals int64 `json:"steals,omitempty"`
	Splits int64 `json:"splits,omitempty"`
	// Workers is the worker count of a scaling-table row.
	Workers int `json:"workers,omitempty"`
	// Speedup is the ratio of the matching baseline entry's ns/op to
	// this entry's: the sequential solve for parallel rows, the
	// assignment-path evaluation for the indexed ablation row, the
	// cold partner for the solve-cache rows.
	Speedup float64 `json:"speedup,omitempty"`
	// HitRate is the fraction of cache lookups the timed loop served
	// from the cache (solve-cache hot rows only).
	HitRate float64 `json:"hit_rate,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Short      bool    `json:"short"`
	Workers    int     `json:"workers"`
	Scaling    []int   `json:"scaling,omitempty"`
	Entries    []Entry `json:"entries"`
}

func main() {
	out := flag.String("out", "BENCH_pr3.json", "report file ('-' for stdout)")
	short := flag.Bool("short", false, "run only the CI-sized workload grid")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"workers for the parallel rows (minimum 2: the sequential rows are the 1-worker reference)")
	withCache := flag.Bool("cache", false,
		"add the solve-cache group: cold vs cached propagation fixpoints, and negotiation/renegotiation plan replay")
	scaling := flag.String("scaling", "",
		"comma-separated worker counts (e.g. 1,2,4,8): emit only the work-stealing scaling table over the workload grid")
	flag.Parse()

	workers := *parallel
	if workers < 2 {
		workers = 2
	}
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
		Workers:    workers,
		Entries:    []Entry{},
	}

	bench := func(name string, fn func(b *testing.B)) Entry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		e := Entry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Entries = append(rep.Entries, e)
		return e
	}
	last := func() *Entry { return &rep.Entries[len(rep.Entries)-1] }

	if *scaling != "" {
		counts, err := parseCounts(*scaling)
		if err != nil {
			log.Fatalf("softsoa-bench: -scaling: %v", err)
		}
		rep.Scaling = counts
		scalingTable(&rep, bench, last, *short, counts)
		writeReport(&rep, *out)
		return
	}

	// E-series anchors.
	fig1 := fig1Problem()
	bench("e1/fig1-bb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := solver.BranchAndBound(fig1); res.Blevel != 7 {
				b.Fatalf("blevel = %v", res.Blevel)
			}
		}
	})
	stamp(last(), solver.BranchAndBound(fig1))

	e15, err := workload.RandomWeightedSCSP(workload.SCSPParams{
		Vars: 9, DomainSize: 3, Density: 0.7, Tightness: 1, Seed: 27,
	})
	if err != nil {
		log.Fatalf("softsoa-bench: %v", err)
	}
	bench("e15/propagate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.Propagate(e15, 0)
		}
	})

	// Indexed-evaluation ablation: fold every constraint over every
	// complete tuple through the stride-indexed Evaluator versus the
	// map-keyed Assignment path. Same arithmetic, same order; only the
	// addressing differs.
	ablation(&rep, bench, e15)

	// Workload grid: sequential reference vs parallel, identical
	// results asserted, speedup recorded on the parallel row.
	for _, params := range workload.BenchParams(*short) {
		p, err := workload.RandomWeightedSCSP(params)
		if err != nil {
			log.Fatalf("softsoa-bench: %v", err)
		}
		tag := fmt.Sprintf("workload/v%d-d%d-s%d", params.Vars, params.DomainSize, params.Seed)
		seqRes := solver.BranchAndBound(p, solver.WithWorkers(1))
		parRes := solver.BranchAndBound(p, solver.WithWorkers(workers))
		if seqRes.Blevel != parRes.Blevel || len(seqRes.Best) != len(parRes.Best) {
			log.Fatalf("softsoa-bench: %s: parallel result diverged (blevel %v vs %v, %d vs %d solutions)",
				tag, seqRes.Blevel, parRes.Blevel, len(seqRes.Best), len(parRes.Best))
		}
		seq := bench(tag+"/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p, solver.WithWorkers(1))
			}
		})
		stamp(last(), seqRes)
		bench(fmt.Sprintf("%s/par%d", tag, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p, solver.WithWorkers(workers))
			}
		})
		stamp(last(), parRes)
		last().Speedup = round3(seq.NsPerOp / last().NsPerOp)
	}

	if *withCache {
		cacheBenches(&rep, bench)
	}

	writeReport(&rep, *out)
}

func writeReport(rep *Report, out string) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("softsoa-bench: %v", err)
	}
	buf = append(buf, '\n')
	if out == "-" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Fatalf("softsoa-bench: %v", err)
		}
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatalf("softsoa-bench: %v", err)
	}
	fmt.Printf("wrote %s (%d entries)\n", out, len(rep.Entries))
}

// parseCounts parses the -scaling worker list.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// scalingTable times every workload-grid instance once per worker
// count. Before any timing, each parallel solve's full result —
// blevel, frontier values and assignments — is asserted identical to
// the 1-worker reference; a divergence aborts the run. Speedup on
// each row is relative to the instance's first count in the list
// (conventionally 1, the sequential reference).
func scalingTable(rep *Report, bench func(string, func(*testing.B)) Entry, last func() *Entry, short bool, counts []int) {
	for _, params := range workload.BenchParams(short) {
		p, err := workload.RandomWeightedSCSP(params)
		if err != nil {
			log.Fatalf("softsoa-bench: %v", err)
		}
		tag := fmt.Sprintf("scaling/v%d-d%d-s%d", params.Vars, params.DomainSize, params.Seed)
		ref := solver.BranchAndBound(p, solver.WithWorkers(1))
		var base float64
		for i, w := range counts {
			w := w
			res := solver.BranchAndBound(p, solver.WithWorkers(w))
			assertSameSolve(p, tag, w, ref, res)
			bench(fmt.Sprintf("%s/w%d", tag, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solver.BranchAndBound(p, solver.WithWorkers(w))
				}
			})
			e := last()
			stamp(e, res)
			e.Steals = res.Stats.Steals
			e.Splits = res.Stats.Splits
			e.Workers = w
			if i == 0 {
				base = e.NsPerOp
			} else {
				e.Speedup = round3(base / e.NsPerOp)
			}
		}
	}
}

// assertSameSolve verifies a parallel result is bitwise identical to
// the sequential reference: blevel, frontier order, every frontier
// value and every assignment label.
func assertSameSolve(p *core.Problem[float64], tag string, workers int, want, got solver.Result[float64]) {
	sr := p.Space().Semiring()
	if !sr.Eq(want.Blevel, got.Blevel) {
		log.Fatalf("softsoa-bench: %s/w%d: blevel %s, want %s",
			tag, workers, sr.Format(got.Blevel), sr.Format(want.Blevel))
	}
	if len(want.Best) != len(got.Best) {
		log.Fatalf("softsoa-bench: %s/w%d: frontier size %d, want %d",
			tag, workers, len(got.Best), len(want.Best))
	}
	for i := range want.Best {
		if !sr.Eq(want.Best[i].Value, got.Best[i].Value) {
			log.Fatalf("softsoa-bench: %s/w%d: frontier[%d] value %s, want %s",
				tag, workers, i, sr.Format(got.Best[i].Value), sr.Format(want.Best[i].Value))
		}
		wa, ga := want.Best[i].Assignment, got.Best[i].Assignment
		if len(wa) != len(ga) {
			log.Fatalf("softsoa-bench: %s/w%d: frontier[%d] assignment size %d, want %d",
				tag, workers, i, len(ga), len(wa))
		}
		for v, dv := range wa {
			if ga[v].Label != dv.Label {
				log.Fatalf("softsoa-bench: %s/w%d: frontier[%d] %s=%s, want %s",
					tag, workers, i, v, ga[v].Label, dv.Label)
			}
		}
	}
}

// stamp copies the deterministic search statistics onto an entry.
func stamp[T any](e *Entry, res solver.Result[T]) {
	e.Nodes = res.Stats.Nodes
	e.Prunes = res.Stats.Prunes
	e.Tasks = res.Stats.Tasks
}

// ablation benches EvalAll over digit vectors against At over
// Assignments on the same instance and records the indexed row's
// speedup against the assignment baseline.
func ablation(rep *Report, bench func(string, func(*testing.B)) Entry, p *core.Problem[float64]) {
	s := p.Space()
	sr := s.Semiring()
	cs := p.Constraints()
	ev := core.NewEvaluator(s, cs)
	sizes := ev.DomainSizes()
	sweepIndexed := func() float64 {
		digits := make([]int, len(sizes))
		acc := sr.Zero()
		for {
			acc = sr.Plus(acc, ev.EvalAll(digits))
			if !next(digits, sizes) {
				return acc
			}
		}
	}
	sweepAssignment := func() float64 {
		digits := make([]int, len(sizes))
		acc := sr.Zero()
		for {
			a := ev.Assignment(digits)
			v := sr.One()
			for _, c := range cs {
				v = sr.Times(v, c.At(a))
			}
			acc = sr.Plus(acc, v)
			if !next(digits, sizes) {
				return acc
			}
		}
	}
	want := sweepAssignment()
	if got := sweepIndexed(); !sr.Eq(got, want) {
		log.Fatalf("softsoa-bench: ablation paths disagree: %v vs %v", got, want)
	}
	base := bench("ablation/eval-assignment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepAssignment()
		}
	})
	bench("ablation/eval-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepIndexed()
		}
	})
	e := &rep.Entries[len(rep.Entries)-1]
	e.Speedup = round3(base.NsPerOp / e.NsPerOp)
}

// next advances digits as a mixed-radix odometer; false on wrap.
func next(digits, sizes []int) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i]++
		if digits[i] < sizes[i] {
			return true
		}
		digits[i] = 0
	}
	return false
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }

// fig1Problem rebuilds the Fig. 1 weighted CSP of the paper, the same
// instance BenchmarkE1Fig1WeightedCSP solves.
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
