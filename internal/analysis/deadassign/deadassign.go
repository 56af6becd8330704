// Package deadassign flags blank-assignment no-ops: statements like
// `_ = i` whose right-hand side is side-effect-free and whose variable
// does not need the assignment to compile. These are leftovers from
// refactors (the seed tree carried one in internal/rng's Categorical)
// and they read as if they silence something when they silence nothing
// — range variables, parameters and already-used variables may simply
// go unused in Go.
//
// Deliberately permitted: `_ = x` where x is an otherwise-unused local
// (that assignment is load-bearing: it silences the compiler's
// declared-and-not-used error), `_ = f()` (the call has effects),
// `_ = xs[0]` (a bounds-check hint), and package-level `var _ Iface =
// ...` interface assertions (declarations, not assignments).
package deadassign

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the deadassign check.
var Analyzer = &analysis.Analyzer{
	Name: "deadassign",
	Doc: "flag blank assignments (_ = x) that neither have effects nor " +
		"silence a declared-and-not-used error",
	Run: run,
}

func run(pass *analysis.Pass) {
	// exempt holds variables that may go unused without the blank
	// assignment: range-clause variables and function parameters,
	// receivers and named results.
	exempt := map[types.Object]string{}
	uses := map[types.Object][]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj, ok := pass.Info.Uses[n].(*types.Var); ok {
					uses[obj] = append(uses[obj], n.Pos())
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							if obj := pass.Info.Defs[id]; obj != nil {
								exempt[obj] = "range variable"
							}
						}
					}
				}
			case *ast.FuncType:
				for _, list := range fieldLists(n) {
					for _, field := range list.List {
						for _, id := range field.Names {
							if obj := pass.Info.Defs[id]; obj != nil {
								exempt[obj] = "parameter"
							}
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					for _, field := range n.Recv.List {
						for _, id := range field.Names {
							if obj := pass.Info.Defs[id]; obj != nil {
								exempt[obj] = "receiver"
							}
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true
				}
			}
			for _, rhs := range as.Rhs {
				if !pure(rhs) {
					return true
				}
			}
			// The assignment is a pure no-op unless some referenced local
			// needs it to satisfy the unused-variable check.
			refs := 0
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj, ok := pass.Info.Uses[id].(*types.Var)
					if !ok {
						return true
					}
					refs++
					if why, isExempt := exempt[obj]; isExempt {
						pass.Reportf(as.Pos(),
							"dead blank assignment: %s %q may go unused without it; remove `_ = %s`",
							why, obj.Name(), obj.Name())
						return false
					}
					for _, p := range uses[obj] {
						if p < as.Pos() || p >= as.End() {
							pass.Reportf(as.Pos(),
								"dead blank assignment: %q is already used at %s; remove `_ = %s`",
								obj.Name(), pass.Fset.Position(p), obj.Name())
							return false
						}
					}
					return false // sole use of a local: silences declared-and-not-used
				})
			}
			if refs == 0 {
				pass.Reportf(as.Pos(), "dead blank assignment of a constant expression; remove it")
			}
			return true
		})
	}
}

func fieldLists(ft *ast.FuncType) []*ast.FieldList {
	lists := []*ast.FieldList{}
	if ft.Params != nil {
		lists = append(lists, ft.Params)
	}
	if ft.Results != nil {
		lists = append(lists, ft.Results)
	}
	return lists
}

// pure reports whether e cannot have side effects and cannot panic:
// identifiers, literals, selector chains and parenthesized forms.
// Calls, indexing (bounds-check hints) and everything else are impure.
func pure(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return true
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return pure(v.X)
	case *ast.SelectorExpr:
		return pure(v.X)
	default:
		return false
	}
}
