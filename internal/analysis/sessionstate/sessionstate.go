// Package sessionstate enforces the session-layer split introduced with
// concurrent read execution: per-caller statement state lives on
// core.Conn, never on the shared core.Database. core.Database may not
// declare mutable per-statement fields — range tables (string-to-string
// maps), I/O accumulators (buffer.Stats values or buffer.Account
// pointers), or the well-known session fields that used to live there
// (ranges, tmpSeq, nowAt). One caller's statement state on the shared
// struct is exactly what makes two sessions unable to execute
// concurrently.
package sessionstate

import (
	"go/ast"
	"go/types"

	"tdbms/internal/analysis"
)

const (
	corePkg   = "tdbms/internal/core"
	bufferPkg = "tdbms/internal/buffer"
)

// legacyFields names the per-statement fields that historically lived on
// core.Database and must never return, whatever their type.
var legacyFields = map[string]bool{
	"ranges": true, "tmpSeq": true, "nowAt": true,
}

// Analyzer is the session-state check.
var Analyzer = &analysis.Analyzer{
	Name: "sessionstate",
	Doc:  "per-caller statement state lives on core.Conn, not on core.Database",
	Run:  run,
}

func run(pass *analysis.Pass) {
	// Fixture packages load under a synthetic import path, so the target
	// is also recognized by package name.
	if pass.Pkg.Path() == corePkg || pass.Pkg.Name() == "core" {
		checkDatabaseFields(pass)
	}
}

// checkDatabaseFields flags per-caller state declared on the Database
// struct.
func checkDatabaseFields(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Database" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				names := field.Names
				if len(names) == 0 {
					continue // embedded fields carry no statement state of their own
				}
				tv, ok := pass.Info.Types[field.Type]
				if !ok {
					continue
				}
				for _, name := range names {
					if why := sessionStateKind(name.Name, tv.Type); why != "" {
						pass.Report(name.Pos(),
							"core.Database field %q is %s: per-caller statement state belongs on core.Conn, the shared database must stay safe for concurrent readers",
							name.Name, why)
					}
				}
			}
			return true
		})
	}
}

// sessionStateKind classifies a Database field as per-caller statement
// state, returning a description or "" when the field is fine.
func sessionStateKind(name string, t types.Type) string {
	if legacyFields[name] {
		return "a legacy session field"
	}
	if m, ok := t.Underlying().(*types.Map); ok {
		if isString(m.Key()) && isString(m.Elem()) {
			return "a range table (map[string]string)"
		}
	}
	if named := namedType(t); named != nil {
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == bufferPkg {
			switch named.Obj().Name() {
			case "Stats":
				return "an I/O accumulator (buffer.Stats)"
			case "Account":
				return "an I/O accumulator (buffer.Account)"
			}
		}
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// namedType unwraps one level of pointer and returns the named type, if
// any.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
