package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tdbms/internal/core"
)

// The benchmarks below time fast-mode figure regeneration at several
// worker counts — the wall-clock the parallel harness exists to cut.
// Alongside timings they record the deterministic work per run (input
// pages and result rows summed over every database, query, and update
// count), which must be identical at every worker count; TestMain
// persists both to BENCH_figures.json so runs can be diffed. Wall-clock
// is machine-dependent and never part of a golden.

const figuresBenchUC = 1

type figuresBenchResult struct {
	Workers       int     `json:"workers"`
	MaxUC         int     `json:"max_uc"`
	SecondsPerRun float64 `json:"seconds_per_run"`
	InputPages    int64   `json:"input_pages"`
	Rows          int64   `json:"rows"`
}

var (
	figuresBenchMu      sync.Mutex
	figuresBenchResults = map[string]figuresBenchResult{}
)

func benchFigures(b *testing.B, workers int) {
	var pages, rows int64
	for i := 0; i < b.N; i++ {
		series, err := AllSeries(figuresBenchUC, workers, core.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		pages, rows = 0, 0
		for _, k := range AllKeys() {
			s := series[k]
			for _, id := range QueryIDs {
				for uc := 0; uc <= s.MaxUC; uc++ {
					m := s.Cost[id][uc]
					pages += m.Input
					rows += int64(m.Rows)
				}
			}
		}
	}
	b.ReportMetric(float64(pages), "pages/op")
	r := figuresBenchResult{
		Workers:       workers,
		MaxUC:         figuresBenchUC,
		SecondsPerRun: b.Elapsed().Seconds() / float64(b.N),
		InputPages:    pages,
		Rows:          rows,
	}
	figuresBenchMu.Lock()
	figuresBenchResults[fmt.Sprintf("figures/workers=%d", workers)] = r
	figuresBenchMu.Unlock()
}

func BenchmarkFiguresWorkers1(b *testing.B) { benchFigures(b, 1) }
func BenchmarkFiguresWorkers2(b *testing.B) { benchFigures(b, 2) }
func BenchmarkFiguresWorkersMax(b *testing.B) {
	benchFigures(b, runtime.GOMAXPROCS(0))
}

// TestMain persists the recorded sweep when benchmarks ran (plain
// `go test` leaves no artifact behind).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && len(figuresBenchResults) > 0 {
		names := make([]string, 0, len(figuresBenchResults))
		for n := range figuresBenchResults {
			names = append(names, n)
		}
		sort.Strings(names)
		out := make(map[string]figuresBenchResult, len(figuresBenchResults))
		for _, n := range names {
			out[n] = figuresBenchResults[n]
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_figures.json", append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing BENCH_figures.json:", err)
			code = 1
		}
	}
	os.Exit(code)
}
