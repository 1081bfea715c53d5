// Package bufpolicy guards the measurement policy of the buffer manager:
// the paper's figures are only comparable under one buffer frame per
// relation (Section 5.1), so the multi-frame Policy knob must stay behind
// the sanctioned configuration surfaces. A buffer.Policy composite
// literal may be constructed only in
//
//   - internal/buffer itself (it defines the type and its normalization),
//     and
//   - internal/core (engine configuration via core.Options and the
//     session-level `\set buffer` override, Conn.SetBufferPolicy).
//
// Everywhere else — the benchmark harness above all — a stray literal
// could silently shift every page counter; such code must go through
// core.Options or Conn.SetBufferPolicy, which are visible configuration.
// Test files are outside tdbvet's loader and therefore exempt.
package bufpolicy

import (
	"go/ast"
	"go/types"

	"tdbms/internal/analysis"
)

const bufferPkg = "tdbms/internal/buffer"

// sanctioned lists the package paths (and, for fixture loading, package
// names) allowed to construct buffer.Policy values.
var sanctioned = map[string]bool{
	bufferPkg:             true,
	"tdbms/internal/core": true,
	"buffer":              true, "core": true,
}

// Analyzer is the buffer-policy construction check.
var Analyzer = &analysis.Analyzer{
	Name: "bufpolicy",
	Doc:  "buffer.Policy is constructed only in internal/buffer and internal/core: measurement mode must not drift via a stray policy literal",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if sanctioned[pass.Pkg.Path()] || sanctioned[pass.Pkg.Name()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[lit]
			if !ok || !isBufferPolicy(tv.Type) {
				return true
			}
			pass.Report(lit.Pos(),
				"buffer.Policy constructed outside the sanctioned configuration surfaces: use core.Options{BufferFrames, BufferReadahead} or Conn.SetBufferPolicy, so the single-frame measurement policy cannot drift silently")
			return true
		})
	}
}

// isBufferPolicy reports whether t is the buffer package's Policy type.
// Fixture packages load under a synthetic import path, so the defining
// package is also recognized by name.
func isBufferPolicy(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Policy" || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == bufferPkg || obj.Pkg().Name() == "buffer"
}
