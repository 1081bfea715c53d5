// Package analysis is the shared driver beneath cmd/tdbvet: a small,
// stdlib-only static-analysis framework (go/ast + go/types, no external
// loader) plus the repo-specific suite of invariant checks.
//
// The paper's evaluation depends on invariants the compiler cannot see:
// every page touch must flow through internal/buffer so the Reads/Writes
// counters remain the benchmark metric, and the figure-generation paths
// must be bit-for-bit deterministic so regenerated tables are comparable
// across commits. Each invariant is one Analyzer in a subpackage; this
// package loads and type-checks the module, runs the analyzers that apply
// to each package, and filters diagnostics through //tdbvet:ignore
// directives so every exception is visible in review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check name used in diagnostics and ignore directives
	// (e.g. "layering").
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run inspects one type-checked package and reports violations via
	// pass.Report.
	Run func(pass *Pass)
	// Finish, when set, runs once after every package has been analyzed.
	// It sees all loaded packages plus the fact store, and is where
	// whole-module properties (the latchorder lock-order graph) are
	// judged. Finish diagnostics go through the same //tdbvet:ignore
	// filtering as Run diagnostics.
	Finish func(pass *FinishPass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts carries this analyzer's summaries to its Finish pass (nil:
	// ExportFact is a no-op).
	Facts *Facts

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// RunAnalyzer applies one analyzer to a loaded package and returns its
// diagnostics sorted by position, with //tdbvet:ignore directives applied.
func RunAnalyzer(a *Analyzer, pkg *Package, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Facts:    facts,
		analyzer: a,
		diags:    &diags,
	}
	a.Run(pass)
	diags = filterIgnored(pkg, diags)
	sortDiagnostics(diags)
	return diags
}

// FinishPass carries the whole analyzed module through one analyzer's
// Finish hook.
type FinishPass struct {
	Fset *token.FileSet
	// Packages holds every package the driver loaded, sorted by import
	// path, so Finish iterates deterministically.
	Packages []*Package
	Facts    *Facts

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a whole-module diagnostic at pos.
func (p *FinishPass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunFinish applies one analyzer's Finish hook over all loaded packages,
// filtering the diagnostics through every package's ignore directives.
func RunFinish(a *Analyzer, fset *token.FileSet, pkgs []*Package, facts *Facts) []Diagnostic {
	if a.Finish == nil {
		return nil
	}
	var diags []Diagnostic
	pass := &FinishPass{
		Fset:     fset,
		Packages: pkgs,
		Facts:    facts,
		analyzer: a,
		diags:    &diags,
	}
	a.Finish(pass)
	for _, pkg := range pkgs {
		diags = filterIgnored(pkg, diags)
	}
	sortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by position then check name — the
// canonical presentation order, applied whenever streams from multiple
// passes (or packages) are merged.
func SortDiagnostics(diags []Diagnostic) { sortDiagnostics(diags) }

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
}
