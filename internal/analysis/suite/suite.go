// Package suite wires the repo's invariant checks to the packages they
// govern and runs them over the module. The analyzers themselves
// (internal/analysis/*) are scope-free; this package encodes the repo
// policy — which layers each invariant binds.
package suite

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/copylocks"
	"tdbms/internal/analysis/determinism"
	"tdbms/internal/analysis/errcheck"
	"tdbms/internal/analysis/errwrap"
	"tdbms/internal/analysis/latchorder"
	"tdbms/internal/analysis/layering"
)

// Scoped pairs an analyzer with the set of packages it applies to.
// modPath is the module path, pkgPath the package under consideration.
type Scoped struct {
	Analyzer *analysis.Analyzer
	Applies  func(modPath, pkgPath string) bool
}

func underInternal(modPath, pkgPath string) bool {
	return strings.HasPrefix(pkgPath, modPath+"/internal/")
}

func everywhere(modPath, pkgPath string) bool { return true }

// Checks is the full tdbvet suite with its scoping policy:
//
//   - layering runs module-wide: its storage-stack rules bind every
//     internal package (internal/storage itself and internal/buffer are
//     exempted inside the analyzer), its containment rule the whole
//     module — only _test.go files (never loaded) and internal/difftest
//     import the fault-injection wrapper;
//   - determinism guards the measurement/figure paths in internal/bench;
//   - errcheck guards all of internal/;
//   - copylocks guards the whole module, examples and commands included;
//   - pagecopy keeps page.Page behind pointers everywhere but the three
//     packages that own page memory (internal/page, internal/storage,
//     internal/buffer), so the read path stays copy-free;
//   - latchorder (module-wide) requires every Lock/RLock released on
//     every return path of the acquiring function, modulo defer; builds
//     per-function held-latch sets from the same walk, propagates them
//     over the call graph, and rejects lock-order cycles and blocking I/O
//     under the statement lock outside flush paths;
//   - errwrap (module-wide) requires fmt.Errorf to format every error
//     operand with %w and forbids .Error() text feeding fmt.Errorf or
//     errors.New, so errors.Is and faultfs.IsInjected stay sound.
var Checks = []Scoped{
	{layering.Analyzer, everywhere},
	{determinism.Analyzer, func(modPath, pkgPath string) bool {
		return pkgPath == modPath+"/internal/bench"
	}},
	{errcheck.Analyzer, underInternal},
	{copylocks.Analyzer, everywhere},
	{copylocks.PageCopy, func(modPath, pkgPath string) bool {
		switch pkgPath {
		case modPath + "/internal/page", modPath + "/internal/storage", modPath + "/internal/buffer":
			return false
		}
		return true
	}},
	{latchorder.Analyzer, everywhere},
	{errwrap.Analyzer, everywhere},
}

// KnownChecks maps the valid check names (for directive validation).
func KnownChecks() map[string]bool {
	out := make(map[string]bool, len(Checks))
	for _, c := range Checks {
		out[c.Analyzer.Name] = true
	}
	return out
}

// Run applies the full suite; see RunChecks.
func Run(modRoot string, patterns []string) ([]analysis.Diagnostic, error) {
	return RunChecks(modRoot, patterns, Checks)
}

// RunChecks loads the requested packages of the module rooted at modRoot
// and applies every in-scope analyzer from checks to each loaded package
// in import-path order, then runs the Finish passes and the sweep for
// stale directives.
//
// Patterns follow the go tool's shape: "./..." for the whole module,
// "dir/..." for a subtree, or a plain module-relative directory. When a
// pattern restricts the target set, the module packages the targets
// import are still analyzed, so the Finish passes see their facts, but
// only targets contribute Run diagnostics. Diagnostics come back sorted
// by position. Packages that fail to load are reported together, one
// line each, in path order.
func RunChecks(modRoot string, patterns []string, checks []Scoped) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	targets, err := expand(loader, patterns)
	if err != nil {
		return nil, err
	}
	ran := map[string]map[string]bool{} // target -> checks applied to it
	var loadErrs []string
	for _, t := range targets {
		ran[t] = map[string]bool{}
		if _, err := loader.Load(t); err != nil {
			loadErrs = append(loadErrs, err.Error())
		}
	}
	if len(loadErrs) > 0 {
		return nil, errors.New(strings.Join(loadErrs, "\n"))
	}

	known := KnownChecks()
	facts := analysis.NewFacts()
	pkgs := loader.Loaded()
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		applied, isTarget := ran[pkg.Path]
		if isTarget {
			all = append(all, analysis.CheckDirectives(pkg, known)...)
		}
		for _, c := range checks {
			if !c.Applies(loader.ModPath, pkg.Path) {
				continue
			}
			ds := analysis.RunAnalyzer(c.Analyzer, pkg, facts)
			if isTarget {
				applied[c.Analyzer.Name] = true
				all = append(all, ds...)
			}
		}
	}
	// Whole-module Finish passes (the latchorder lock-order graph), then
	// the stale-exception sweep — after Finish, so directives that
	// suppress Finish diagnostics count as used.
	for _, c := range checks {
		all = append(all, analysis.RunFinish(c.Analyzer, loader.Fset, pkgs, facts)...)
	}
	for _, pkg := range pkgs {
		if applied, isTarget := ran[pkg.Path]; isTarget {
			all = append(all, analysis.UnusedDirectives(pkg, applied)...)
		}
	}
	analysis.SortDiagnostics(all)
	return all, nil
}

// expand resolves command-line patterns to module package paths.
func expand(loader *analysis.Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := modRelative(loader.ModPath, strings.TrimSuffix(pat, "/..."))
			matched := false
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matches no packages", pat)
			}
		default:
			add(modRelative(loader.ModPath, pat))
		}
	}
	sort.Strings(out)
	return out, nil
}

// modRelative turns "./internal/bench" or "internal/bench" into the full
// import path; a pattern already starting with the module path passes
// through.
func modRelative(modPath, pat string) string {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "" || pat == "." {
		return modPath
	}
	if pat == modPath || strings.HasPrefix(pat, modPath+"/") {
		return pat
	}
	return modPath + "/" + pat
}
