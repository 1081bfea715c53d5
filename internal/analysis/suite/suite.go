// Package suite wires the repo's invariant checks to the packages they
// govern and schedules them across the module. The analyzers themselves
// (internal/analysis/*) are scope-free; this package encodes the repo
// policy — which layers each invariant binds — and runs the checks
// package-parallel in dependency order, so interprocedural analyzers
// always see their upstream facts before a downstream package is
// analyzed.
package suite

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/copylocks"
	"tdbms/internal/analysis/determinism"
	"tdbms/internal/analysis/errcheck"
	"tdbms/internal/analysis/errwrap"
	"tdbms/internal/analysis/latchorder"
	"tdbms/internal/analysis/layering"
	"tdbms/internal/analysis/lockscope"
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
//   - lockscope (module-wide) requires every Lock/RLock released on every
//     return path of the acquiring function, modulo defer;
//   - latchorder (module-wide) builds per-function held-latch sets,
//     propagates them over the call graph, and rejects lock-order cycles
//     and blocking I/O under the statement lock outside flush paths;
//   - errwrap (module-wide) keeps the %w chain of storage/faultfs errors
//     intact so errors.Is and faultfs.IsInjected stay sound.
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
	{lockscope.Analyzer, everywhere},
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

// Run applies the full suite package-parallel; see RunChecksParallel.
func Run(modRoot string, patterns []string) ([]analysis.Diagnostic, error) {
	return RunChecksParallel(modRoot, patterns, Checks, 0)
}

// RunChecks applies the given checks with the default worker count.
func RunChecks(modRoot string, patterns []string, checks []Scoped) ([]analysis.Diagnostic, error) {
	return RunChecksParallel(modRoot, patterns, checks, 0)
}

// RunChecksParallel loads the requested packages of the module rooted at
// modRoot and applies every in-scope analyzer from checks, scheduling
// packages across workers goroutines (workers <= 0 means GOMAXPROCS) in
// dependency order: a package starts only after all of its
// module-internal imports have been loaded AND analyzed, so fact
// importers always see complete upstream facts, and the type checker's
// recursive imports always hit the loader's memo.
//
// Patterns follow the go tool's shape: "./..." for the whole module,
// "dir/..." for a subtree, or a plain module-relative directory. When a
// pattern restricts the target set, dependency packages outside it are
// still analyzed for their facts, but only targets contribute
// diagnostics. Diagnostics come back globally sorted by position, so the
// output is byte-identical at any worker count. Packages that fail to
// load are collected and reported together, one line each, in path
// order.
func RunChecksParallel(modRoot string, patterns []string, checks []Scoped, workers int) ([]analysis.Diagnostic, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	targets, err := expand(loader, patterns)
	if err != nil {
		return nil, err
	}
	targetSet := map[string]bool{}
	for _, t := range targets {
		targetSet[t] = true
	}

	// Dependency closure from a syntax-only parse: targets plus every
	// module package they transitively import.
	deps := map[string][]string{}
	var order []string
	var visit func(p string)
	visit = func(p string) {
		if _, ok := deps[p]; ok {
			return
		}
		deps[p] = nil
		ds, derr := loader.Deps(p)
		if derr != nil {
			ds = nil // Load will surface the real error with positions
		}
		deps[p] = ds
		order = append(order, p)
		for _, d := range ds {
			visit(d)
		}
	}
	for _, t := range targets {
		visit(t)
	}
	sort.Strings(order)

	waiting := map[string]int{}
	dependents := map[string][]string{}
	for _, p := range order {
		for _, d := range deps[p] {
			if d == p {
				continue
			}
			waiting[p]++
			dependents[d] = append(dependents[d], p)
		}
	}
	var ready []string
	for _, p := range order {
		if waiting[p] == 0 {
			ready = append(ready, p)
		}
	}

	var (
		mu      sync.Mutex // guards ready/waiting/running (scheduler state)
		running = 0
		cond    = sync.NewCond(&mu)

		resMu    sync.Mutex // guards the result maps
		results  = map[string][]analysis.Diagnostic{}
		applied  = map[string]map[string]bool{}
		loadErrs = map[string]error{}
		started  = map[string]bool{}
	)
	known := KnownChecks()
	facts := analysis.NewFacts()

	process := func(path string) {
		pkg, lerr := loader.Load(path)
		if lerr != nil {
			resMu.Lock()
			loadErrs[path] = lerr
			resMu.Unlock()
			return
		}
		var diags []analysis.Diagnostic
		if targetSet[path] {
			diags = append(diags, analysis.CheckDirectives(pkg, known)...)
		}
		ran := map[string]bool{}
		for _, c := range checks {
			if !c.Applies(loader.ModPath, path) {
				continue
			}
			ran[c.Analyzer.Name] = true
			ds := analysis.RunAnalyzer(c.Analyzer, pkg, facts)
			if targetSet[path] {
				diags = append(diags, ds...)
			}
		}
		if targetSet[path] {
			resMu.Lock()
			results[path] = diags
			applied[path] = ran
			resMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && running > 0 {
					cond.Wait()
				}
				if len(ready) == 0 {
					// running == 0: all done, or a cycle left packages
					// blocked forever (reported after the pool drains).
					mu.Unlock()
					return
				}
				path := ready[0]
				ready = ready[1:]
				started[path] = true
				running++
				mu.Unlock()

				process(path)

				mu.Lock()
				running--
				for _, dep := range dependents[path] {
					waiting[dep]--
					if waiting[dep] == 0 {
						ready = append(ready, dep)
					}
				}
				sort.Strings(ready)
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, p := range order {
		if !started[p] {
			loadErrs[p] = fmt.Errorf("%s: not schedulable (import cycle in module packages)", p)
		}
	}
	if len(loadErrs) > 0 {
		paths := make([]string, 0, len(loadErrs))
		for p := range loadErrs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		msgs := make([]string, len(paths))
		for i, p := range paths {
			msgs[i] = loadErrs[p].Error()
		}
		return nil, errors.New(strings.Join(msgs, "\n"))
	}

	var all []analysis.Diagnostic
	resPaths := make([]string, 0, len(results))
	for p := range results {
		resPaths = append(resPaths, p)
	}
	sort.Strings(resPaths)
	for _, p := range resPaths {
		all = append(all, results[p]...)
	}
	// Whole-module Finish passes (the latchorder lock-order graph), then
	// the stale-exception sweep — after Finish, so directives that
	// suppress Finish diagnostics count as used.
	for _, c := range checks {
		if c.Analyzer.Finish != nil {
			all = append(all, analysis.RunFinish(c.Analyzer, loader.Fset, loader.Loaded(), facts)...)
		}
	}
	for _, p := range targets {
		pkg, lerr := loader.Load(p) // memo hit
		if lerr != nil {
			continue
		}
		all = append(all, analysis.UnusedDirectives(pkg, applied[p])...)
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
