// Package errcheck flags discarded error returns under internal/. A
// storage engine that drops an I/O error silently corrupts the very
// counters the benchmark reports, so every error must be handled,
// propagated, or visibly discarded.
//
// Flagged:
//   - a call whose results include an error used as a bare statement;
//   - the same under go or defer;
//   - a blank identifier swallowing the error result of a multi-value
//     call or assignment ("v, _ := f()").
//
// Not flagged: the explicit single-value discard "_ = f()", which is the
// sanctioned way to mark an error as deliberately irrelevant (cleanup on
// an already-failing path, for example) while staying visible in review;
// and writes to infallible in-memory sinks (strings.Builder,
// bytes.Buffer), whose Write methods are documented to always return a
// nil error — including fmt.Fprint* calls targeting such a sink.
package errcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"tdbms/internal/analysis"
)

// Analyzer is the errcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "errcheck",
	Doc:  "no silently discarded error returns",
	Run:  run,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				checkCallStmt(pass, stmt.X, "")
			case *ast.GoStmt:
				checkCallStmt(pass, stmt.Call, "go ")
			case *ast.DeferStmt:
				checkCallStmt(pass, stmt.Call, "defer ")
			case *ast.AssignStmt:
				checkAssign(pass, stmt)
			}
			return true
		})
	}
}

// errorResults returns the indices of error-typed results of call, or nil
// if call is not a function call (e.g. a type conversion).
func errorResults(pass *analysis.Pass, call *ast.CallExpr) []int {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	tv, ok := pass.Info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				out = append(out, i)
			}
		}
		return out
	default:
		if types.Identical(tv.Type, errorType) {
			return []int{0}
		}
	}
	return nil
}

// infallible reports whether the call's error result is documented to
// always be nil: methods on strings.Builder or bytes.Buffer, and fmt
// Fprint/Fprintf/Fprintln writing to such a sink.
func infallible(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if selection, ok := pass.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
		return isInfallibleSink(selection.Recv())
	}
	// fmt.Fprint*(sink, ...)
	if obj, ok := pass.Info.Uses[sel.Sel]; ok {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
			if tv, ok := pass.Info.Types[call.Args[0]]; ok {
				return isInfallibleSink(tv.Type)
			}
		}
	}
	return false
}

func isInfallibleSink(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

func checkCallStmt(pass *analysis.Pass, expr ast.Expr, prefix string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	if len(errorResults(pass, call)) == 0 || infallible(pass, call) {
		return
	}
	pass.Report(call.Pos(), "%s%s discards its error result; handle it or assign to _ explicitly",
		prefix, callName(pass, call))
}

// checkAssign flags blank identifiers that absorb an error in a
// multi-value assignment. The single-value "_ = f()" form is the explicit
// discard idiom and is allowed.
func checkAssign(pass *analysis.Pass, stmt *ast.AssignStmt) {
	if len(stmt.Lhs) < 2 {
		return
	}
	if len(stmt.Rhs) == 1 {
		// v, _ := f()
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range errorResults(pass, call) {
			if i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
				pass.Report(stmt.Lhs[i].Pos(),
					"blank identifier swallows the error from %s; handle it or name the discard with a directive",
					callName(pass, call))
			}
		}
		return
	}
	// a, b = x, y — pairwise
	for i, lhs := range stmt.Lhs {
		if !isBlank(lhs) || i >= len(stmt.Rhs) {
			continue
		}
		if tv, ok := pass.Info.Types[stmt.Rhs[i]]; ok && types.Identical(tv.Type, errorType) {
			pass.Report(lhs.Pos(), "blank identifier swallows an error value")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a short name for the called function.
func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return "call of " + fun.Name
	case *ast.SelectorExpr:
		return "call of " + types.ExprString(fun)
	default:
		return "call"
	}
}
