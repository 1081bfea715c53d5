// Command tdbvet is the repo's invariant checker: a stdlib-only static
// analyzer enforcing the properties the paper's evaluation rests on but
// the compiler cannot see.
//
//	layering     raw file I/O only in internal/storage; buffer.Stats
//	             mutated only by internal/buffer; catalog.Stats (the
//	             optimizer statistics) mutated only by internal/catalog
//	             and internal/core; the WAL written only by internal/wal;
//	             module-wide, internal/faultfs imported only by
//	             internal/difftest and tests
//	determinism  no wall clock, global rand, or map-ordered iteration in
//	             internal/bench figure paths
//	errcheck     no silently discarded errors under internal/
//	copylocks    no by-value copies of sync primitives or counter-bearing
//	             buffer/storage types
//	pagecopy     no by-value copies of page.Page outside internal/page,
//	             internal/storage and internal/buffer: the read path is
//	             copy-free
//	latchorder   every Lock/RLock released on every return path of the
//	             acquiring function, modulo defer, outside designated
//	             //tdbvet:latchpoint hand-offs; no lock-order cycles among
//	             engine latches; no blocking I/O under the statement lock
//	             outside designated //tdbvet:flushpath functions
//	errwrap      fmt.Errorf formats every error operand with %w, and no
//	             .Error() text feeds fmt.Errorf or errors.New, so
//	             errors.Is and faultfs.IsInjected stay sound
//
// Usage:
//
//	tdbvet [-checks layering,errcheck] [-json] [packages]
//
// Packages default to ./... (the whole module). Diagnostics are sorted by
// file:line:col. -json emits one JSON object per diagnostic line instead
// of text. Exit code 0 means clean, 1 means diagnostics were reported, 2
// means the analysis itself failed.
// Intentional exceptions are annotated in source as
// "//tdbvet:ignore <check> <reason>".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errOut io.Writer, args []string) int {
	fs := flag.NewFlagSet("tdbvet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	asJSON := fs.Bool("json", false, "emit one JSON object per diagnostic instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(errOut, "tdbvet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(errOut, "tdbvet:", err)
		return 2
	}
	diags, err := suite.RunChecks(root, fs.Args(), selected)
	if err != nil {
		fmt.Fprintln(errOut, "tdbvet:", err)
		return 2
	}
	if err := render(out, diags, *asJSON); err != nil {
		fmt.Fprintln(errOut, "tdbvet:", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "tdbvet: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiagnostic is the -json wire shape: one object per line.
type jsonDiagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// render writes the diagnostics as text lines or JSON lines.
func render(out io.Writer, diags []analysis.Diagnostic, asJSON bool) error {
	if !asJSON {
		for _, d := range diags {
			fmt.Fprintln(out, d.String())
		}
		return nil
	}
	enc := json.NewEncoder(out)
	for _, d := range diags {
		jd := jsonDiagnostic{
			Check:   d.Check,
			File:    d.Position.Filename,
			Line:    d.Position.Line,
			Column:  d.Position.Column,
			Message: d.Message,
		}
		if err := enc.Encode(jd); err != nil {
			return err
		}
	}
	return nil
}

// selectChecks narrows the suite to the requested check names.
func selectChecks(list string) ([]suite.Scoped, error) {
	if list == "" {
		return suite.Checks, nil
	}
	want := map[string]bool{}
	known := suite.KnownChecks()
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown check %q (have: %s)", name, strings.Join(checkNames(), ", "))
		}
		want[name] = true
	}
	var kept []suite.Scoped
	for _, c := range suite.Checks {
		if want[c.Analyzer.Name] {
			kept = append(kept, c)
		}
	}
	return kept, nil
}

func checkNames() []string {
	var out []string
	for _, c := range suite.Checks {
		out = append(out, c.Analyzer.Name)
	}
	return out
}
