// Package errwrap keeps error wrap chains intact on the way up. The fault
// harness decides "was this failure injected?" with errors.Is(err,
// faultfs.ErrInjected), and the buffer pool classifies I/O failures the
// same way — one fmt.Errorf("%v") on the path quietly turns an injected
// fault into an unrecognized error and the differential oracle
// misclassifies the run.
//
// The rule is local to each call: any error may carry a storage/faultfs
// error, so every error is held to it. Flagged, at the offending operand:
//
//   - fmt.Errorf formatting an operand whose static type implements
//     error with any verb but %w;
//   - the .Error() text of an error feeding fmt.Errorf or errors.New.
//
// Returning the error verbatim, wrapping with %w (multiple %w included),
// and errors.Join all preserve the chain and pass. A call with a
// non-constant format string is not classified.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/callgraph"
)

// Analyzer is the error-wrap-chain check.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc:  "errors keep their %w chain so errors.Is and faultfs.IsInjected stay sound",
	Run:  run,
}

const (
	lostVerb    = "storage/faultfs error formatted without %w; errors.Is and faultfs.IsInjected will stop matching — wrap it (%w) or return it verbatim"
	lostText    = "storage/faultfs error stringified with .Error() into a new error; the wrap chain is lost — use %w"
	lostTextNew = "storage/faultfs error stringified with .Error() into a new error; the wrap chain is lost — use fmt.Errorf with %w"
)

func run(pass *analysis.Pass) {
	isError := func(e ast.Expr) bool {
		tv, ok := pass.Info.Types[e]
		return ok && tv.Type != nil && types.Implements(tv.Type, errorType)
	}
	// stringified reports whether e contains x.Error() with x an error.
	stringified := func(e ast.Expr) (found bool) {
		ast.Inspect(e, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok && !found {
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				found = ok && sel.Sel.Name == "Error" && len(call.Args) == 0 && isError(sel.X)
			}
			return !found
		})
		return found
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callgraph.Callee(pass.Info, call)
			if callee == nil {
				return true
			}
			switch analysis.ObjectKey(callee) {
			case "fmt.Errorf":
				for i, v := range formatVerbs(pass.Info, call) {
					if 1+i >= len(call.Args) {
						break
					}
					arg := call.Args[1+i]
					if v != 'w' && isError(arg) {
						pass.Report(arg.Pos(), "%s", lostVerb)
					}
					if stringified(arg) {
						pass.Report(arg.Pos(), "%s", lostText)
					}
				}
			case "errors.New":
				for _, arg := range call.Args {
					if stringified(arg) {
						pass.Report(arg.Pos(), "%s", lostTextNew)
					}
				}
			}
			return true
		})
	}
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// formatVerbs extracts the verb letters of a fmt.Errorf call's constant
// format string in argument order, skipping %%; none for a format that is
// not a constant.
func formatVerbs(info *types.Info, call *ast.CallExpr) []byte {
	if len(call.Args) < 2 {
		return nil
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil
	}
	format := constant.StringVal(tv.Value)
	var out []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision.
		for i < len(format) && strings.IndexByte("+-# 0123456789.*", format[i]) >= 0 {
			i++
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		out = append(out, format[i])
	}
	return out
}
