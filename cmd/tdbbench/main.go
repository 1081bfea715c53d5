// Command tdbbench regenerates the evaluation of Ahn & Snodgrass (1986):
// it builds the eight benchmark databases, runs the twelve queries of
// Figure 4 while evolving the databases through update counts 0..15, and
// prints Figures 5 through 10 plus the Section 5.4 non-uniform experiment.
//
// Usage:
//
//	tdbbench [-figure all|5|6|7|8|9|10|5.4] [-maxuc N] [-maxavg N] [-workers N] [-wal] [-q]
//
// The eight databases behind Figures 5-9 are built and measured
// concurrently by a bounded worker pool; -workers overrides the default
// of one worker per CPU. The output is byte-identical at any worker
// count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: all, 5, 6, 7, 8, 9, 10, 5.4, or ablations")
	maxUC := flag.Int("maxuc", 15, "maximum update count for Figures 5-9")
	maxAvg := flag.Int("maxavg", 4, "maximum average update count for the Section 5.4 experiment")
	workers := flag.Int("workers", 0, "benchmark databases to build and measure concurrently (0 = one per CPU)")
	quiet := flag.Bool("q", false, "suppress progress output")
	wal := flag.Bool("wal", false, "build the Figure 5-9 databases disk-backed with write-ahead logging (figures must stay byte-identical: the log is below the counted I/O path)")
	flag.Parse()

	if err := run(os.Stdout, *figure, *maxUC, *maxAvg, *workers, *wal, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "tdbbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, figure string, maxUC, maxAvg, workers int, wal, quiet bool) error {
	note := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	want := map[string]bool{}
	for _, f := range strings.Split(figure, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	needSeries := all || want["5"] || want["6"] || want["7"] || want["8"] || want["9"]
	var series map[bench.Key]*bench.Series
	if needSeries {
		var opts core.Options
		if wal {
			dir, err := os.MkdirTemp("", "tdbbench-wal-")
			if err != nil {
				return err
			}
			defer func() { _ = os.RemoveAll(dir) }() // scratch databases; figures already printed
			opts = core.Options{Dir: dir, WAL: true}
			note("building and evolving the eight benchmark databases under the WAL (update counts 0..%d)...", maxUC)
		} else {
			note("building and evolving the eight benchmark databases (update counts 0..%d)...", maxUC)
		}
		var err error
		series, err = bench.AllSeries(maxUC, workers, opts, func(k bench.Key, uc int) {
			if uc == maxUC {
				note("  %s/%d%%: done", k.T, k.L)
			}
		})
		if err != nil {
			return err
		}
	}

	if all || want["5"] {
		fmt.Fprintln(out, bench.Figure5(series))
	}
	if all || want["6"] {
		fmt.Fprintln(out, bench.Figure6(series[bench.Key{T: bench.Temporal, L: 100}]))
	}
	if all || want["7"] {
		fmt.Fprintln(out, bench.Figure7(series))
	}
	if all || want["8"] {
		fmt.Fprintln(out, bench.Figure8(
			series[bench.Key{T: bench.Temporal, L: 100}],
			series[bench.Key{T: bench.Rollback, L: 50}]))
	}
	if all || want["9"] {
		fmt.Fprintln(out, bench.Figure9(series))
	}
	if all || want["10"] {
		uc := maxUC
		if uc > 14 {
			uc = 14
		}
		note("measuring the Section 6 enhancements (Figure 10)...")
		r, err := bench.RunFigure10(uc, func(stage string) { note("  %s", stage) })
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Format())
	}
	if all || want["5.4"] {
		note("running the non-uniform-distribution experiment (Section 5.4)...")
		r, err := bench.RunNonUniform(maxAvg, func(k int) { note("  average update count %d done", k) })
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Format())
	}
	if all || want["ablations"] {
		note("running ablations (access methods, loading factor, buffer frames)...")
		uc := maxUC
		if uc > 14 {
			uc = 14
		}
		am, err := bench.RunAccessAblation(uc, func(m string) { note("  access method: %s", m) })
		if err != nil {
			return err
		}
		fmt.Fprintln(out, am.Format())
		lf, err := bench.RunLoadingAblation(uc, func(l int) { note("  loading factor: %d%%", l) })
		if err != nil {
			return err
		}
		fmt.Fprintln(out, lf.Format())
		bf, err := bench.RunBufferAblation(min(uc, 4), []int{1, 8, 64},
			func(n int) { note("  buffer frames: %d", n) })
		if err != nil {
			return err
		}
		fmt.Fprintln(out, bf.Format())
		pa, err := bench.RunPoolAblation(min(uc, 4), 64, 8, func(pooled bool) {
			if pooled {
				note("  pool policy: 64 frames, 8-page readahead")
			} else {
				note("  pool policy: single frame")
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, pa.Format())
	}
	return nil
}
