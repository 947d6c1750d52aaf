package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicCheck enforces all-or-nothing atomicity on shared words: any
// struct field or package variable that is accessed through sync/atomic
// anywhere in the module must be accessed atomically everywhere, and
// fields of the typed atomic kinds (atomic.Int64, atomic.Pointer[T],
// ...) must only be touched through their methods. A mixed plain
// read/write is exactly the torn-access bug class the solve cache's
// admission doorkeeper (cache.Admit's atomic.Uint64 slots) and its
// hit/miss counters risk: one goroutine swapping a word atomically
// while another reads it directly is a data race the type system
// cannot see. The check is module-wide —
// the atomic use and the plain use are usually in different functions,
// often in different packages.
var AtomicCheck = &Analyzer{
	Name:      "atomiccheck",
	Doc:       "fields and package vars accessed via sync/atomic anywhere must be accessed atomically everywhere",
	RunModule: runAtomicCheck,
}

// typedAtomicNames are the sync/atomic wrapper types whose values must
// only be used through method calls (or by address).
var typedAtomicNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// atomicSite records where an object was first seen used atomically.
type atomicSite struct {
	name string
	pos  token.Position
}

func isTypedAtomic(t types.Type) bool {
	path, name := namedTypePath(t)
	return path == "sync/atomic" && typedAtomicNames[name]
}

// atomicFuncCall reports whether call invokes a sync/atomic
// package-level function (atomic.AddInt64, atomic.LoadPointer, ...).
func atomicFuncCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.ObjectOf(sel.Sel).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// targetOf resolves the object an address-of operand names: &s.n
// yields the field n, &count the package var count.
func targetOf(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.ObjectOf(e)
	case *ast.SelectorExpr:
		return pkg.ObjectOf(e.Sel)
	}
	return nil
}

func runAtomicCheck(m *ModulePass) {
	// Pass 1: every field or package var whose address feeds a
	// sync/atomic function call, module-wide.
	atomicObjs := make(map[string]atomicSite)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !atomicFuncCall(pkg, call) {
					return true
				}
				for _, arg := range call.Args {
					ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ue.Op != token.AND {
						continue
					}
					obj := targetOf(pkg, ue.X)
					if obj == nil || (!isField(obj) && !isPkgVar(obj)) {
						continue
					}
					key := posKey(pkg.Fset, obj)
					if _, seen := atomicObjs[key]; !seen {
						atomicObjs[key] = atomicSite{
							name: obj.Name(),
							pos:  pkg.Fset.Position(call.Pos()),
						}
					}
				}
				return true
			})
		}
	}

	// Pass 2: every access to those objects — and to typed-atomic
	// fields/vars — must be an atomic one.
	for _, pkg := range m.Pkgs {
		checkAtomicAccesses(m, pkg, atomicObjs)
	}
}

// constructorName reports whether the enclosing function is a
// constructor or initializer, where plain stores to a value that has
// not escaped yet are the conventional way to seed atomics.
func constructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

func checkAtomicAccesses(m *ModulePass, pkg *Package, atomicObjs map[string]atomicSite) {
	for _, f := range pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if obj == nil || (!isField(obj) && !isPkgVar(obj)) {
				return true
			}
			typed := isTypedAtomic(obj.Type())
			site, viaFuncs := atomicObjs[posKey(pkg.Fset, obj)]
			if !typed && !viaFuncs {
				return true
			}

			// The access expression: the ident itself, or the selector
			// it terminates (s.n for field n).
			access := ast.Node(id)
			top := len(stack) - 1
			if sel, ok := stack[top].(*ast.SelectorExpr); ok && sel.Sel == id {
				access = sel
				top--
			}
			if top < 0 {
				return true
			}
			if atomicAccessOK(pkg, access, stack[:top+1], typed) {
				return true
			}
			if constructorName(enclosingFuncName(stack)) {
				return true
			}
			verb := "read or copied"
			switch ctx := stack[top].(type) {
			case *ast.AssignStmt:
				for _, lhs := range ctx.Lhs {
					if lhs == access {
						verb = "written"
					}
				}
			case *ast.IncDecStmt:
				verb = "written"
			case *ast.UnaryExpr:
				if ctx.Op == token.AND {
					verb = "address-taken"
				}
			}
			if typed {
				m.Reportf(pkg, access.Pos(),
					"%s has atomic type and must only be used through its methods, but is %s plainly here", obj.Name(), verb)
			} else {
				m.Reportf(pkg, access.Pos(),
					"%s is accessed via sync/atomic at %s but %s plainly here (mixed atomic/plain access)",
					obj.Name(), site.pos, verb)
			}
			return true
		})
	}
}

// atomicAccessOK reports whether the access node is used in one of the
// sanctioned shapes: as the receiver of a method call (typed atomics),
// as a composite-literal key, or — for function-style atomics — as the
// operand of & passed directly into a sync/atomic call. Typed atomics
// additionally allow plain address-of, since a pointer preserves
// atomicity while a copy does not.
func atomicAccessOK(pkg *Package, access ast.Node, stack []ast.Node, typed bool) bool {
	if len(stack) == 0 {
		return false
	}
	switch ctx := stack[len(stack)-1].(type) {
	case *ast.KeyValueExpr:
		if ctx.Key == access && len(stack) >= 2 {
			_, inLit := stack[len(stack)-2].(*ast.CompositeLit)
			return inLit
		}
	case *ast.SelectorExpr:
		if ctx.X == access {
			_, isMethod := pkg.ObjectOf(ctx.Sel).(*types.Func)
			return isMethod
		}
	case *ast.UnaryExpr:
		if ctx.Op != token.AND || ctx.X != access {
			return false
		}
		if typed {
			return true
		}
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && atomicFuncCall(pkg, call) {
				for _, arg := range call.Args {
					if ast.Unparen(arg) == ctx {
						return true
					}
				}
			}
		}
	}
	return false
}
