// Package layering enforces the storage-layering invariant behind the
// paper's measurements: every page touch must flow through the buffer
// manager so that buffer.Stats counts it. Rules 1–5 bind the packages
// under internal/; rule 6 binds the whole module. Concretely:
//
//  1. Raw file I/O (os.Open, os.OpenFile, os.Create, os.ReadFile, ...)
//     is reserved to internal/storage; any other internal package opening
//     files directly could move page traffic outside the counted path.
//  2. The buffer.Stats counters may be mutated only by internal/buffer
//     itself; everyone else gets a copy via (*Buffered).Stats().
//  3. The planner (internal/plan) decides access paths but must never
//     touch pages itself: it may not import internal/buffer or
//     internal/storage. Execution — and therefore all counted I/O —
//     belongs to the executor and the layers below it.
//  4. The optimizer statistics (catalog.Stats) are written only by
//     internal/catalog and internal/core — the layers that hold the
//     relation latch while they mutate. Everyone else reads estimates;
//     a stray writer would skew every cost-based plan silently.
//  5. The write-ahead log is appended only through the WAL manager:
//     WriteAt and Truncate on a storage.Log are reserved to internal/wal,
//     internal/storage (the implementations), and internal/faultfs (the
//     injection wrapper), and storage.OpenDiskLog is called only by
//     internal/storage and internal/core — the engine opens its one log
//     in core.Open. A stray log writer could forge or destroy committed
//     records without holding any latch recovery knows about.
//  6. The fault-injection wrapper (internal/faultfs) is test
//     infrastructure: only internal/difftest and _test.go files may import
//     it. A production import would let injected-fault plumbing into
//     measured code paths, where the page counts the goldens pin hold only
//     over the real storage stack. (The loader never type-checks _test.go
//     files, so they are exempt by construction.)
//
// Fixture packages load under a synthetic import path, so the packages
// the rules name are also recognized by package name where a fixture has
// to stand in for them.
package layering

import (
	"go/ast"
	"go/types"
	"strings"

	"tdbms/internal/analysis"
)

const (
	modPath    = "tdbms"
	bufferPkg  = "tdbms/internal/buffer"
	storagePkg = "tdbms/internal/storage"
	planPkg    = "tdbms/internal/plan"
	catalogPkg = "tdbms/internal/catalog"
	corePkg    = "tdbms/internal/core"
	walPkg     = "tdbms/internal/wal"
	faultfsPkg = "tdbms/internal/faultfs"
)

// faultfsImporters may import the fault-injection wrapper (rule 6), by
// path or, for fixtures, by package name.
var faultfsImporters = map[string]bool{
	faultfsPkg: true, "tdbms/internal/difftest": true,
	"faultfs": true, "difftest": true,
}

// logMutators are the storage.Log methods that change log contents;
// outside the WAL stack they could forge or destroy committed records.
var logMutators = map[string]bool{"WriteAt": true, "Truncate": true}

// statsMutators lists the catalog.Stats methods that write statistics;
// calling one outside the sanctioned packages is a mutation like any
// field write.
var statsMutators = map[string]bool{
	"NoteInsert": true, "NoteRemove": true, "NoteClose": true,
	"NoteHistoryInsert": true, "NoteReplaceImage": true, "SetIndex": true,
}

// forbiddenIO lists the file-opening and whole-file I/O functions that
// constitute raw file access. Functions that only manipulate metadata
// (Remove, Rename, MkdirAll, Stat) are deliberately not listed: they move
// no page-sized data past the buffer manager.
var forbiddenIO = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "NewFile": true,
	},
	"io/ioutil": {
		"ReadFile": true, "WriteFile": true, "TempFile": true,
	},
}

// Analyzer is the layering check.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc:  "raw file I/O only in internal/storage; buffer.Stats mutated only by internal/buffer; catalog.Stats mutated only by internal/catalog and internal/core; the WAL log written only by internal/wal; internal/faultfs imported only by internal/difftest and tests",
	Run:  run,
}

func run(pass *analysis.Pass) {
	p, name := pass.Pkg.Path(), pass.Pkg.Name()
	if !faultfsImporters[p] && !faultfsImporters[name] {
		checkFaultfsImport(pass)
	}
	// Commands, examples and the benchmark open files and read counters as
	// they please; the storage-stack rules bind internal/ (and fixtures).
	if p == modPath || strings.HasPrefix(p, modPath+"/") && !strings.HasPrefix(p, modPath+"/internal/") {
		return
	}
	if pass.Pkg.Path() != storagePkg {
		checkRawIO(pass)
	}
	if pass.Pkg.Path() != bufferPkg {
		checkStatsMutation(pass)
	}
	if p := pass.Pkg.Path(); p != catalogPkg && p != corePkg {
		checkCatalogStats(pass)
	}
	if p := pass.Pkg.Path(); p != storagePkg && p != walPkg && p != faultfsPkg {
		checkLogWrites(pass)
	}
	if p := pass.Pkg.Path(); p != storagePkg && p != corePkg {
		checkLogConstruction(pass)
	}
	// Fixture packages load under a synthetic import path, so the planner
	// is also recognized by package name.
	if pass.Pkg.Path() == planPkg || pass.Pkg.Name() == "plan" {
		checkPlanImports(pass)
	}
}

// checkLogConstruction flags calls to the on-disk log constructor: the
// engine opens its single log file in core.Open and hands the storage.Log
// down; a second opener would write the same file without the WAL
// manager's framing.
func checkLogConstruction(pass *analysis.Pass) {
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if fn.Pkg().Path() != storagePkg || fn.Name() != "OpenDiskLog" {
			continue
		}
		pass.Report(ident.Pos(),
			"storage.OpenDiskLog outside internal/core: the engine opens its one log in core.Open; everyone else receives a storage.Log")
	}
}

// checkLogWrites flags WriteAt/Truncate calls on storage.Log values (or
// the concrete storage log types) outside the WAL stack: only the WAL
// manager may append records, and only it knows the framing recovery
// trusts.
func checkLogWrites(pass *analysis.Pass) {
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || !logMutators[fn.Name()] {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if !isStorageLog(sig.Recv().Type()) {
			continue
		}
		pass.Report(ident.Pos(),
			"%s on a storage log outside internal/wal bypasses the WAL manager's record framing",
			fn.Name())
	}
}

// isStorageLog reports whether t (possibly behind a pointer) is the
// storage.Log interface or one of the storage package's log types.
func isStorageLog(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != storagePkg {
		return false
	}
	switch named.Obj().Name() {
	case "Log", "DiskLog", "MemLog":
		return true
	}
	return false
}

// checkPlanImports flags storage-stack imports inside the planner: a plan
// describes page accesses, it must not be able to perform them.
func checkPlanImports(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := imp.Path.Value // quoted literal
			if len(path) < 2 {
				continue
			}
			switch path[1 : len(path)-1] {
			case bufferPkg, storagePkg:
				pass.Report(imp.Pos(),
					"the planner must not import %s: access-path decisions are storage-free, page I/O belongs to the executor",
					path[1:len(path)-1])
			}
		}
	}
}

// checkRawIO flags uses of the forbidden file-I/O functions.
func checkRawIO(pass *analysis.Pass) {
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // method, not a package-level function
		}
		names := forbiddenIO[fn.Pkg().Path()]
		if names == nil || !names[fn.Name()] {
			continue
		}
		pass.Report(ident.Pos(),
			"raw file I/O via %s.%s outside internal/storage bypasses the buffer manager's counted I/O path",
			fn.Pkg().Name(), fn.Name())
	}
}

// checkStatsMutation flags assignments and ++/-- on fields of
// buffer.Stats outside the buffer package.
func checkStatsMutation(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					reportIfStatsField(pass, lhs)
				}
			case *ast.IncDecStmt:
				reportIfStatsField(pass, stmt.X)
			}
			return true
		})
	}
}

// checkCatalogStats flags writes to the optimizer statistics outside
// internal/catalog and internal/core: direct field assignments and ++/--
// on catalog.Stats, and calls to its mutator methods.
func checkCatalogStats(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					reportIfCatalogStatsField(pass, lhs)
				}
			case *ast.IncDecStmt:
				reportIfCatalogStatsField(pass, stmt.X)
			}
			return true
		})
	}
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || !statsMutators[fn.Name()] {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if !isCatalogStats(sig.Recv().Type()) {
			continue
		}
		pass.Report(ident.Pos(),
			"call to catalog.Stats.%s outside internal/catalog and internal/core skews the planner's statistics",
			fn.Name())
	}
}

func reportIfCatalogStatsField(pass *analysis.Pass, expr ast.Expr) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	if !isCatalogStats(selection.Recv()) {
		return
	}
	pass.Report(sel.Pos(),
		"mutation of catalog.Stats.%s outside internal/catalog and internal/core skews the planner's statistics",
		sel.Sel.Name)
}

// isCatalogStats reports whether t (possibly behind a pointer) is the
// catalog.Stats type.
func isCatalogStats(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == catalogPkg && named.Obj().Name() == "Stats"
}

func reportIfStatsField(pass *analysis.Pass, expr ast.Expr) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	if named.Obj().Pkg().Path() != bufferPkg || named.Obj().Name() != "Stats" {
		return
	}
	pass.Report(sel.Pos(),
		"mutation of buffer.Stats.%s outside internal/buffer falsifies the benchmark's I/O counters",
		sel.Sel.Name)
}

// checkFaultfsImport flags imports of the fault-injection wrapper.
func checkFaultfsImport(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path := imp.Path.Value; len(path) >= 2 && path[1:len(path)-1] == faultfsPkg {
				pass.Report(imp.Pos(),
					"%s is test infrastructure: import it from _test.go files or internal/difftest, never from production code",
					faultfsPkg)
			}
		}
	}
}
