package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSelfCheck runs the full suite over the real module and demands a
// clean bill: any invariant regression fails `go test ./...` directly,
// CI script or not.
func TestSelfCheck(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(&out, &errOut, []string{"./..."})
	if code != 0 {
		t.Fatalf("tdbvet on the module exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run should print nothing, got:\n%s", out.String())
	}
}

// TestExitCodeOnViolation checks the non-zero exit and the file:line:col
// diagnostic format on a violating tree.
func TestExitCodeOnViolation(t *testing.T) {
	dir := t.TempDir()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixturemod\n\ngo 1.22\n"), 0o644))
	must(os.MkdirAll(filepath.Join(dir, "internal", "blob"), 0o755))
	must(os.WriteFile(filepath.Join(dir, "internal", "blob", "blob.go"), []byte(`package blob

import "os"

func Drop(path string) {
	os.Remove(path)
}
`), 0o644))

	cwd, err := os.Getwd()
	must(err)
	must(os.Chdir(dir))
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()

	var out, errOut bytes.Buffer
	code := run(&out, &errOut, []string{"./..."})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, errOut.String())
	}
	format := regexp.MustCompile(`(?m)^.+blob\.go:6:2: errcheck: .+$`)
	if !format.Match(out.Bytes()) {
		t.Errorf("diagnostics not in file:line:col: check: message form:\n%s", out.String())
	}
	if !bytes.Contains(errOut.Bytes(), []byte("1 invariant violation")) {
		t.Errorf("stderr should summarize the violation count, got: %s", errOut.String())
	}
}

// writeModule lays out a throwaway module and chdirs into it, since run()
// resolves the module root from the working directory like the go tool.
func writeModule(t *testing.T, files map[string]string) {
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
	t.Chdir(dir)
}

const violating = `package blob

import "os"

func Drop(path string) {
	os.Remove(path)
}
`

// TestExitLoadFailure: analysis failure (unloadable packages) is exit 2,
// distinct from "violations found" (exit 1), and every failing package is
// named on stderr — not just the first one.
func TestExitLoadFailure(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":                "module fixturemod\n\ngo 1.22\n",
		"internal/bad1/bad1.go": "package bad1\n\nfunc broken( {\n",
		"internal/bad2/bad2.go": "package bad2\n\nvar x int = \"s\"\n",
	})
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, nil); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errOut.String())
	}
	msg := errOut.String()
	if !strings.Contains(msg, "bad1") || !strings.Contains(msg, "bad2") {
		t.Errorf("both failing packages should be reported:\n%s", msg)
	}
}

// TestJSONOutput: -json emits one parseable object per diagnostic with
// the documented fields, and the text rendering stays off stdout.
func TestJSONOutput(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":                "module fixturemod\n\ngo 1.22\n",
		"internal/blob/blob.go": violating,
	})
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, []string{"-json"}); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 JSON line, got %d:\n%s", len(lines), out.String())
	}
	var d jsonDiagnostic
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, lines[0])
	}
	if d.Check != "errcheck" || d.Line != 6 || d.Column == 0 || d.Message == "" {
		t.Errorf("incomplete diagnostic: %+v", d)
	}
	if !strings.HasSuffix(d.File, "blob.go") {
		t.Errorf("file = %q, want ...blob.go", d.File)
	}
}

func TestChecksFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, []string{"-checks", "nosuchcheck", "./..."}); code != 2 {
		t.Errorf("unknown check name should exit 2, got %d", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run(&out, &errOut, []string{"-checks", "layering,determinism", "./..."}); code != 0 {
		t.Errorf("narrowed clean run should exit 0, got %d\n%s%s", code, out.String(), errOut.String())
	}
}
