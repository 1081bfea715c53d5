package suite_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/suite"
)

// writeModule lays out a throwaway module under a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const gomod = "module fixturemod\n\ngo 1.22\n"

func TestRunFlagsViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/blob/blob.go": `package blob

import "os"

func Drop(path string) {
	os.Remove(path)
}
`,
	})
	diags, err := suite.Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "errcheck" {
		t.Errorf("check = %q, want errcheck", d.Check)
	}
	// file:line:col: check: message
	format := regexp.MustCompile(`^.+blob\.go:6:2: errcheck: .+$`)
	if !format.MatchString(d.String()) {
		t.Errorf("diagnostic %q does not match file:line:col: check: message", d.String())
	}
}

func TestRunHonorsDirective(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/blob/blob.go": `package blob

import "os"

func Drop(path string) {
	os.Remove(path) //tdbvet:ignore errcheck removal of a missing file is fine here
}
`,
	})
	diags, err := suite.Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("directive not honored, got: %v", diags)
	}
}

func TestRunFlagsBadDirectives(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/blob/blob.go": `package blob

//tdbvet:ignore errcheck
func a() {}

//tdbvet:ignore nosuchcheck because reasons
func b() {}
`,
	})
	diags, err := suite.Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (malformed + unknown): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "malformed") {
		t.Errorf("first diagnostic %q should report a malformed directive", diags[0])
	}
	if !strings.Contains(diags[1].Message, "unknown check") {
		t.Errorf("second diagnostic %q should report an unknown check", diags[1])
	}
}

func TestScopingOutsideInternal(t *testing.T) {
	// The same discarded error in a cmd/ package is outside errcheck's
	// scope; copylocks still applies module-wide.
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"cmd/tool/main.go": `package main

import "os"

func main() {
	os.Remove("x")
}
`,
	})
	diags, err := suite.Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("cmd/ should be outside errcheck scope, got: %v", diags)
	}
}

func TestPatternExpansion(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/a/a.go": `package a

import "os"

func A() { os.Remove("x") }
`,
		"internal/b/b.go": `package b

func B() {}
`,
	})
	// Restricting to internal/b must not surface internal/a's violation.
	diags, err := suite.Run(dir, []string{"./internal/b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("pattern ./internal/b leaked other packages: %v", diags)
	}
	diags, err = suite.Run(dir, []string{"internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("pattern internal/... should find 1 violation, got: %v", diags)
	}
}

func TestSelfAnalysis(t *testing.T) {
	// The suite must hold on the repo itself: this is the invariant gate
	// that fails `go test ./...` on any future regression even without CI.
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := suite.Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
