package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tdbms/internal/core"
)

// TestGoldenFiguresWAL rebuilds the Figure 5-9 series on disk-backed,
// write-ahead-logged databases and requires the rendered tables to match
// the in-memory golden fixture byte-for-byte. The log sits below the
// buffer manager's counters — LoggedFile wraps the storage file, not the
// buffer — so durability must cost exactly zero measured page accesses:
// one shifted count anywhere in Figures 5-9 fails the fixture compare.
// Figure 10's two-level stores cannot persist, so it renders from memory
// as in the default run — which also keeps the fixture shared.
func TestGoldenFiguresWAL(t *testing.T) {
	walOpts := core.Options{Dir: t.TempDir(), WAL: true}
	series, err := AllSeries(goldenUC, 0, walOpts, nil)
	if err != nil {
		t.Fatalf("AllSeries(WAL): %v", err)
	}
	f10, err := RunFigure10Opts(goldenF10UC, core.Options{}, nil)
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
	compareGolden(t, b.String(), filepath.Join("testdata", "figures_fast.golden"))
}
