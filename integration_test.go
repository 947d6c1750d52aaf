package softsoa_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"softsoa/internal/workload"
)

// buildBinary compiles a main package into the test's temp dir.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Env = os.Environ()
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, msg)
	}
	return out
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	dieWithTest(cmd)
	err := cmd.Run()
	return buf.String(), err
}

// TestScspsolveCLI solves the Fig. 1 problem file with every solver.
func TestScspsolveCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildBinary(t, "./cmd/scspsolve")
	for _, solver := range []string{"bb", "exhaustive", "ve", "ls"} {
		out, err := run(t, bin, "-solver", solver, "testdata/fig1.scsp")
		if err != nil {
			t.Fatalf("%s: %v\n%s", solver, err, out)
		}
		if !strings.Contains(out, "blevel:    7") {
			t.Errorf("%s: expected blevel 7:\n%s", solver, out)
		}
	}
	if out, err := run(t, bin, "missing.scsp"); err == nil {
		t.Errorf("missing file should fail:\n%s", out)
	}
	if out, err := run(t, bin, "-solver", "bogus", "testdata/fig1.scsp"); err == nil {
		t.Errorf("unknown solver should fail:\n%s", out)
	}
}

// TestNmsccpCLI runs the Example 2 and fuzzy-agreement programs.
func TestNmsccpCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildBinary(t, "./cmd/nmsccp")
	out, err := run(t, bin, "-trace", "-project", "x", "testdata/example2.sccp")
	if err != nil {
		t.Fatalf("example2: %v\n%s", err, out)
	}
	for _, want := range []string{"status: succeeded", "σ⇓∅): 2", "R7 Retract", "x=3 → 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("example2 output missing %q:\n%s", want, out)
		}
	}
	out, err = run(t, bin, "testdata/fuzzy-agreement.sccp")
	if err != nil {
		t.Fatalf("fuzzy: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0.5") {
		t.Errorf("fuzzy agreement should report 0.5:\n%s", out)
	}
	// A stuck program exits non-zero.
	stuck := filepath.Join(t.TempDir(), "stuck.sccp")
	src := "semiring weighted.\nvar f in 0..1.\nmain :: ask(f == 1) -> success.\n"
	if err := os.WriteFile(stuck, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, bin, stuck)
	if err == nil {
		t.Errorf("stuck program should exit non-zero:\n%s", out)
	}
	if !strings.Contains(out, "status: stuck") {
		t.Errorf("expected stuck status:\n%s", out)
	}
}

// TestExperimentsCLI regenerates two representative experiments.
func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildBinary(t, "./cmd/experiments")
	out, err := run(t, bin, "-run", "E1")
	if err != nil {
		t.Fatalf("E1: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all checks passed") || strings.Contains(out, "FAIL") {
		t.Errorf("E1 should pass:\n%s", out)
	}
	if out, err := run(t, bin, "-run", "E99"); err == nil {
		t.Errorf("unknown experiment should fail:\n%s", out)
	}
}

// TestExamplesRun executes every example main and spot-checks its
// paper-conformance output.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"./examples/quickstart", []string{"best level of consistency: 7", "X=a Y=b at cost 7"}},
		{"./examples/negotiation", []string{"status: stuck", "status: succeeded", "final consistency: 2"}},
		{"./examples/photoediting", []string{"(paper: holds)", "(paper: fails)", "0.96"}},
		{"./examples/coalitions", []string{"objective 0.8000", "stable? false", "stable? true"}},
		{"./examples/composition", []string{"negotiated SLA", "optimal (branch & bound)"}},
		{"./examples/slalifecycle", []string{
			"provider secure", "renegotiated to v2",
			"rejected as expected", "5 ticks elapsed, status succeeded",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(filepath.Base(tc.pkg), func(t *testing.T) {
			bin := buildBinary(t, tc.pkg)
			out, err := run(t, bin)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestNmsccpSeedsExploration summarises interleavings.
func TestNmsccpSeedsExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildBinary(t, "./cmd/nmsccp")
	out, err := run(t, bin, "-seeds", "6", "testdata/example2.sccp")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"outcomes over 6 seeds", "succeeded", "× 6", "schedule-independent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestScspgenRoundTrip: a generated problem file solves to the same
// blevel as the in-memory problem it came from.
func TestScspgenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	gen := buildBinary(t, "./cmd/scspgen")
	solve := buildBinary(t, "./cmd/scspsolve")
	for _, sr := range []string{"weighted", "fuzzy"} {
		out, err := run(t, gen, "-semiring", sr, "-vars", "5", "-seed", "7")
		if err != nil {
			t.Fatalf("%s: %v\n%s", sr, err, out)
		}
		path := filepath.Join(t.TempDir(), "gen.scsp")
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		var want float64
		switch sr {
		case "weighted":
			p, err := workload.RandomWeightedSCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			want = p.Blevel()
		case "fuzzy":
			p, err := workload.RandomFuzzySCSP(workload.SCSPParams{
				Vars: 5, DomainSize: 3, Density: 0.5, Tightness: 0.9, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			want = p.Blevel()
		}
		solved, err := run(t, solve, path)
		if err != nil {
			t.Fatalf("%s: %v\n%s", sr, err, solved)
		}
		wantLine := fmt.Sprintf("blevel:    %g", want)
		if !strings.Contains(solved, wantLine) {
			t.Errorf("%s: output missing %q:\n%s", sr, wantLine, solved)
		}
	}
}
