package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdbms/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure fixture")

// goldenUC and goldenF10UC pick the fast-mode depth of the golden run: deep
// enough that every query shape (version scans, substitution joins, index
// probes, the two-level history layouts) executes against non-trivial
// history, shallow enough for tier-1.
const (
	goldenUC    = 2
	goldenF10UC = 4
)

// renderGoldenFigures produces the Figure 5-10 tables from a fast-mode run
// at the default worker count. The page counts in these tables are the
// paper's metric; the golden file pins them byte-for-byte so a storage or
// executor change that shifts a single page access fails this test.
func renderGoldenFigures(t *testing.T) string {
	return renderFiguresAt(t, 0)
}

// renderFiguresAt is renderGoldenFigures at an explicit worker count
// (0 = default) — the determinism test renders at several counts and
// requires identical bytes.
func renderFiguresAt(t *testing.T, workers int) string {
	return renderFiguresOpts(t, workers, core.Options{})
}

// renderFiguresOpts renders the figures with explicit core options — the
// pooled-policy golden runs through it.
func renderFiguresOpts(t *testing.T, workers int, opts core.Options) string {
	t.Helper()
	series, err := AllSeries(goldenUC, workers, opts, nil)
	if err != nil {
		t.Fatalf("AllSeries(%d, %d): %v", goldenUC, workers, err)
	}
	f10, err := RunFigure10Opts(goldenF10UC, opts, nil)
	if err != nil {
		t.Fatalf("RunFigure10(%d): %v", goldenF10UC, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fast-mode figures: update counts 0..%d (figure 10: 0..%d)\n\n", goldenUC, goldenF10UC)
	b.WriteString(Figure5(series))
	b.WriteString("\n")
	b.WriteString(Figure6(series[Key{Temporal, 100}]))
	b.WriteString("\n")
	b.WriteString(Figure7(series))
	b.WriteString("\n")
	b.WriteString(Figure8(series[Key{Temporal, 100}], series[Key{Rollback, 50}]))
	b.WriteString("\n")
	b.WriteString(Figure9(series))
	b.WriteString("\n")
	b.WriteString(f10.Format())
	return b.String()
}

// TestGoldenFigures regenerates the benchmark figures in fast mode and
// requires them to be byte-identical to testdata/figures_fast.golden.
// Run with -update to rewrite the fixture after an intentional change.
func TestGoldenFigures(t *testing.T) {
	compareGolden(t, renderGoldenFigures(t), filepath.Join("testdata", "figures_fast.golden"))
}

// compareGolden requires got to match the fixture at path byte-for-byte,
// rewriting the fixture instead when -update is set.
func compareGolden(t *testing.T, got, path string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		//tdbvet:ignore layering test fixture write, not measured page I/O
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	//tdbvet:ignore layering test fixture read, not measured page I/O
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("figure output diverges from golden at line %d:\n  got:  %q\n  want: %q", i+1, g, w)
			if t.Failed() {
				break
			}
		}
	}
	t.Fatalf("page-count tables changed (got %d bytes, want %d); if intentional, regenerate with -update", len(got), len(want))
}
