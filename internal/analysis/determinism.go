package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// purePackages are the layers whose outputs back the paper's worked
// examples (Fig. 1 blevel, Fig. 5 consistency, Examples 1-3) and must
// therefore be bit-for-bit reproducible across runs.
var purePackages = []string{
	"softsoa/internal/semiring",
	"softsoa/internal/core",
	"softsoa/internal/solver",
	"softsoa/internal/sccp",
	"softsoa/internal/integrity",
	"softsoa/internal/coalition",
	"softsoa/internal/trust",
}

// wallClockFuncs are the time functions that leak wall-clock state
// into otherwise pure computations. Types (time.Time, time.Duration)
// remain free to use; only the ambient sources are banned.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true,
	"NewTimer": true, "Sleep": true,
}

// randConstructors are the math/rand functions that build an explicit
// generator and are therefore allowed; every other package-level
// math/rand function draws from the implicitly seeded global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// importAllowlist names the softsoa packages a pure layer may import
// beyond the pure layers themselves: clock, because the time source
// is injected rather than ambient, obs, because its instruments
// are write-only from the pure layer's perspective — counter adds
// commute, so recording them cannot change a computed result — and
// obs/journal for the same reason: a machine or solver streams
// transition and search records into an injected recorder but never
// reads them back.
var importAllowlist = map[string]bool{
	"softsoa/internal/clock":       true,
	"softsoa/internal/obs":         true,
	"softsoa/internal/obs/journal": true,
}

// Determinism forbids ambient nondeterminism in the pure layers:
// wall-clock reads (inject a clock.Clock), global math/rand draws
// (thread a *rand.Rand seeded from configuration), loops whose output
// order depends on map iteration order, and concurrency whose output
// order depends on scheduling. Worker-pool goroutines and sync/atomic
// incumbents are explicitly allowed iff each goroutine publishes into
// its own index-addressed slot (results[i] = …) and the merge happens
// after the pool drains;
// goroutines that append to (or concatenate into) captured variables,
// and collectors that append while ranging over a channel, publish in
// completion order and are flagged.
var Determinism = &Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall clocks, global randomness, and map-order- or scheduling-order-dependent output in the pure layers",
	Packages: purePackages,
	Run:      runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		checkPureImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj, ok := pass.ObjectOf(n).(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if wallClockFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "time.%s in pure package %s: inject a clock.Clock instead", obj.Name(), pass.Pkg.Types.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[obj.Name()] && obj.Type().(*types.Signature).Recv() == nil {
						pass.Reportf(n.Pos(), "global rand.%s in pure package %s: thread a seeded *rand.Rand instead", obj.Name(), pass.Pkg.Types.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
				checkChanRange(pass, n)
			case *ast.GoStmt:
				checkGoroutineMerge(pass, n)
			}
			return true
		})
	}
}

// checkPureImports keeps the pure layers' softsoa import graph closed
// over {pure layers} ∪ importAllowlist, so effectful packages (soa,
// broker, faults, …) cannot leak ambient state into them through a
// transitive dependency.
func checkPureImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		// Logging is an ambient effect: a pure layer that wants to
		// narrate its execution streams records into an injected
		// journal recorder; the caller decides what (if anything)
		// gets logged.
		if path == "log" || path == "log/slog" {
			pass.Reportf(imp.Pos(), "pure package %s imports %s: stream events through an injected journal recorder instead of logging", pass.Pkg.Types.Name(), path)
			continue
		}
		if !strings.HasPrefix(path, "softsoa/") {
			continue
		}
		if importAllowlist[path] {
			continue
		}
		pure := false
		for _, p := range purePackages {
			if path == p {
				pure = true
				break
			}
		}
		if !pure {
			pass.Reportf(imp.Pos(), "pure package %s imports effectful %s: only the pure layers, clock and obs are allowed", pass.Pkg.Types.Name(), path)
		}
	}
}

// checkGoroutineMerge enforces the deterministic-merge contract for
// goroutines in the pure layers. A worker that writes results[i] into
// a slot indexed by a claimed task (or only touches sync/atomic
// state) passes: the merge order is fixed by the index, not the
// scheduler. A worker that appends to a variable captured from the
// enclosing function — even under a mutex — publishes results in
// completion order, which varies run to run, and is flagged; so is
// string concatenation into a captured variable.
func checkGoroutineMerge(pass *Pass, gs *ast.GoStmt) {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	capturedByLit := func(id *ast.Ident) bool {
		obj := pass.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		an, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range an.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fid, ok := call.Fun.(*ast.Ident)
			if !ok || fid.Name != "append" || len(call.Args) < 2 {
				continue
			}
			if _, isBuiltin := pass.ObjectOf(fid).(*types.Builtin); !isBuiltin {
				continue
			}
			if id, ok := call.Args[0].(*ast.Ident); ok && capturedByLit(id) {
				pass.Reportf(call.Pos(), "goroutine appends to captured %s: results land in completion order; write an index-addressed slot (results[i] = …) and merge after the pool drains", id.Name)
			}
		}
		if an.Tok == token.ADD_ASSIGN && len(an.Lhs) == 1 {
			if id, ok := an.Lhs[0].(*ast.Ident); ok && capturedByLit(id) {
				if bt, ok := pass.TypeOf(id).(*types.Basic); ok && bt.Info()&types.IsString != 0 {
					pass.Reportf(an.Pos(), "goroutine concatenates into captured %s: output depends on scheduling order", id.Name)
				}
			}
		}
		return true
	})
}

// checkChanRange flags collectors that append while ranging over a
// channel: values arrive in the senders' completion order, so the
// collected slice ordering depends on scheduling even when every
// element is eventually received.
func checkChanRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		an, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range an.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fid, ok := call.Fun.(*ast.Ident)
			if !ok || fid.Name != "append" {
				continue
			}
			if _, isBuiltin := pass.ObjectOf(fid).(*types.Builtin); !isBuiltin {
				continue
			}
			pass.Reportf(call.Pos(), "append inside range over channel: results arrive in completion order; collect per-task results in index-addressed slots and merge in task order")
		}
		return true
	})
}

// checkMapRange flags range-over-map loops that build ordered output
// (slice appends, string concatenation, formatted printing): their
// result depends on Go's randomised map iteration order. Collecting
// just the keys for later sorting is the sanctioned idiom and is not
// flagged.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeVarObj(pass, rs.Key)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
					continue
				}
				if appendsOnlyKey(pass, call, keyObj) {
					continue
				}
				pass.Reportf(call.Pos(), "append inside range over map: output order depends on map iteration; collect keys and sort first")
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if bt, ok := pass.TypeOf(n.Lhs[0]).(*types.Basic); ok && bt.Info()&types.IsString != 0 {
					pass.Reportf(n.Pos(), "string concatenation inside range over map: output depends on map iteration order")
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok && obj.Pkg() != nil &&
					obj.Pkg().Path() == "fmt" && obj.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(n.Pos(), "fmt.%s inside range over map: output order depends on map iteration; sort keys first", obj.Name())
				}
			}
		}
		return true
	})
}

func rangeVarObj(pass *Pass, key ast.Expr) types.Object {
	id, ok := key.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.ObjectOf(id)
}

// appendsOnlyKey reports whether every appended element is exactly
// the range key variable (the collect-keys-then-sort idiom).
func appendsOnlyKey(pass *Pass, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) < 2 {
		return false
	}
	for _, a := range call.Args[1:] {
		id, ok := a.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != keyObj {
			return false
		}
	}
	return true
}
