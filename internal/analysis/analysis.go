// Package analysis is the stdlib-only static-analysis framework behind
// cmd/rsulint. It loads every package in the module with go/parser +
// go/types (no external dependencies) and runs project-specific
// analyzers that mechanically enforce the reproduction's non-negotiable
// invariants: determinism (every random draw flows through
// repro/internal/rng, no wall-clock seeds, no map-iteration-order
// dependence), datapath bit-widths (6-bit labels, 8-bit energies, 4-bit
// intensity codes constructed only through repro/internal/fixed's
// validating constructors), and the per-goroutine RNG ownership
// discipline of the sweep engine.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a Pass — but is deliberately
// minimal so the module stays dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in findings, allowlist entries and
	// lint:ignore targets (e.g. "detrand").
	Name string
	// Doc is a one-paragraph description: the invariant guarded, what is
	// flagged, and which patterns are deliberately permitted.
	Doc string
	// Run inspects the pass's package and reports diagnostics.
	Run func(*Pass)
}

// Diagnostic is one finding at a source position. Fix, when non-nil,
// describes a mechanical rewrite that resolves the finding; cmd/rsulint
// renders it as a dry-run diff under -fix.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Fix     *SuggestedFix
}

// SuggestedFix is a single-range source rewrite: replace [Start, End)
// with NewText (empty NewText deletes the range).
type SuggestedFix struct {
	Start, End token.Pos
	NewText    string
}

// Pass carries one type-checked package through one analyzer. Facts is
// the run-wide shared knowledge base (deprecation, hot annotations,
// call-graph-lite); it is never nil when the pass is built through
// RunAnalyzer or RunAll.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Facts    *Facts

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportFix records a diagnostic carrying a mechanical fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Fix: fix})
}

// RunAnalyzer applies a to pkg and returns its diagnostics in source
// order, computing single-package facts on the fly. Multi-package runs
// should build Facts once and use RunAnalyzerFacts so cross-package
// deprecation marks resolve.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	return RunAnalyzerFacts(a, pkg, nil)
}

// RunAnalyzerFacts applies a to pkg under the given shared facts (nil
// falls back to facts over pkg alone).
func RunAnalyzerFacts(a *Analyzer, pkg *Package, facts *Facts) []Diagnostic {
	if facts == nil {
		facts = NewFacts([]*Package{pkg})
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Facts:    facts,
	}
	a.Run(pass)
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags
}

// IsNamed reports whether t is (a pointer to) the named type path.name.
func IsNamed(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// PkgFunc reports whether call invokes the package-level function
// pkgPath.fn (e.g. time.Now), resolving the receiver identifier through
// the type checker so aliased imports are still caught.
func PkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// IsDeprecated reports whether the function declaration carries a
// standard "Deprecated:" marker in its doc comment. ctxflow uses it to
// let a compatibility shim mint the context it bridges, and to permit
// shim-to-shim calls; no other analyzer exempts deprecated bodies.
func IsDeprecated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, "Deprecated:") {
			return true
		}
	}
	return false
}
