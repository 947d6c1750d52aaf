// Command softsoa-bench runs the repository's reproducible benchmark
// suite and writes a machine-readable JSON report: the E-series
// anchors (Fig. 1 search, solver scaling, propagation), the
// indexed-evaluation ablation, and the workload grid solved by branch
// and bound to measure search throughput.
//
// Usage:
//
//	softsoa-bench [-out BENCH_pr3.json] [-short] [-cache]
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
	// Speedup is the ratio of the matching baseline entry's ns/op to
	// this entry's: the assignment-path evaluation for the indexed
	// ablation row, the cold partner for the solve-cache rows.
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
	Entries    []Entry `json:"entries"`
}

func main() {
	out := flag.String("out", "BENCH_pr3.json", "report file ('-' for stdout)")
	short := flag.Bool("short", false, "run only the CI-sized workload grid")
	withCache := flag.Bool("cache", false,
		"add the solve-cache group: cold vs replayed negotiation plans")
	flag.Parse()

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
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

	// Workload grid: branch and bound over the graded instances.
	for _, params := range workload.BenchParams(*short) {
		p, err := workload.RandomWeightedSCSP(params)
		if err != nil {
			log.Fatalf("softsoa-bench: %v", err)
		}
		tag := fmt.Sprintf("workload/v%d-d%d-s%d", params.Vars, params.DomainSize, params.Seed)
		bench(tag+"/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solver.BranchAndBound(p)
			}
		})
		stamp(last(), solver.BranchAndBound(p))
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

// stamp copies the deterministic search statistics onto an entry.
func stamp[T any](e *Entry, res solver.Result[T]) {
	e.Nodes = res.Stats.Nodes
	e.Prunes = res.Stats.Prunes
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
