package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"tdbms/internal/core"
)

// Key identifies one of the eight benchmark databases.
type Key struct {
	T DBType
	L int
}

// AllKeys lists the eight benchmark databases in the paper's column order.
func AllKeys() []Key {
	var out []Key
	for _, t := range Types {
		for _, l := range Loadings {
			out = append(out, Key{t, l})
		}
	}
	return out
}

// DefaultWorkers is the worker count AllSeries uses: one per available
// CPU, capped by the number of benchmark databases.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// AllSeries measures all eight benchmark databases through maxUC on a
// pool of workers (<1 means DefaultWorkers). The result is identical to
// a sequential run: each database is built and measured in its own
// isolated engine, so the page counters cannot observe each other.
// Databases are dealt to the pool in the paper's column order and merged
// back in that order, progress callbacks are serialized, and on failure
// the error of the earliest database in column order wins — so every
// observable output is independent of scheduling.
//
// opts apply to every database (see BuildOpts) — the pooled-policy and
// WAL golden figures set them. When opts.Dir is set, each of the eight
// databases gets its own subdirectory: the two loadings of one type share
// relation names, so they cannot share a catalog.
func AllSeries(maxUC, workers int, opts core.Options, progress func(k Key, uc int)) (map[Key]*Series, error) {
	keys := AllKeys()
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	series := make([]*Series, len(keys))
	errs := make([]error, len(keys))
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				k := keys[i]
				o := opts
				if o.Dir != "" {
					o.Dir = filepath.Join(opts.Dir, fmt.Sprintf("%s_%d", k.T, k.L))
					if err := os.MkdirAll(o.Dir, 0o755); err != nil {
						errs[i] = err
						continue
					}
				}
				series[i], errs[i] = RunOpts(k.T, k.L, maxUC, o, func(uc int) {
					if progress == nil {
						return
					}
					progressMu.Lock()
					defer progressMu.Unlock()
					progress(k, uc)
				})
			}
		}()
	}
	for i := range keys {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	out := make(map[Key]*Series, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("bench: %s/%d%%: %w", k.T, k.L, errs[i])
		}
		out[k] = series[i]
	}
	return out, nil
}

// table renders rows of cells with aligned columns.
func table(rows [][]string) string {
	var width []int
	for _, r := range rows {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtRate(r float64) string { return fmt.Sprintf("%.2f", r) }

// refUC is the update count the paper's summary tables report (Figures 5,
// 7, 9, 10 use update count 14). When a series was run to a smaller maxUC,
// the last available count is used instead.
func refUC(s *Series) int {
	if s.MaxUC < 14 {
		return s.MaxUC
	}
	return 14
}

// Figure5 renders the space requirements table: file sizes at update count
// 0 and 14, growth per update, and growth rate, for all eight databases.
func Figure5(series map[Key]*Series) string {
	header1 := []string{"Type"}
	header2 := []string{"Loading"}
	header3 := []string{"Relation"}
	for _, k := range AllKeys() {
		header1 = append(header1, string(k.T), "")
		header2 = append(header2, fmt.Sprintf("%d%%", k.L), "")
		header3 = append(header3, "H", "I")
	}
	// Take the reference update count from the first database in column
	// order; picking it out of the map would depend on iteration order.
	var n int
	for _, k := range AllKeys() {
		if s, ok := series[k]; ok {
			n = refUC(s)
			break
		}
	}
	row0 := []string{"Size, UC=0"}
	rowN := []string{fmt.Sprintf("Size, UC=%d", n)}
	rowG := []string{"Growth per Update"}
	rowR := []string{"Growth Rate"}
	for _, k := range AllKeys() {
		s := series[k]
		uc := refUC(s)
		for _, size := range [][]int{s.SizeH, s.SizeI} {
			row0 = append(row0, fmt.Sprintf("%d", size[0]))
			if k.T == Static {
				rowN = append(rowN, "-")
				rowG = append(rowG, "-")
				rowR = append(rowR, "-")
				continue
			}
			rowN = append(rowN, fmt.Sprintf("%d", size[uc]))
			growth := float64(size[uc]-size[0]) / float64(uc)
			rowG = append(rowG, fmt.Sprintf("%.1f", growth))
			rowR = append(rowR, fmtRate(growth/float64(size[0])))
		}
	}
	var b strings.Builder
	b.WriteString("Figure 5: Space Requirements (in Pages)\n\n")
	b.WriteString(table([][]string{header1, header2, header3, row0, rowN, rowG, rowR}))
	b.WriteString("\nNotes: Relation H is a hashed file; relation I is an ISAM file.\n")
	b.WriteString("'UC' denotes update count; '-' denotes not applicable.\n")
	return b.String()
}

// Figure6 renders the per-update-count input costs of every query for one
// database (the paper shows the temporal database with 100% loading).
func Figure6(s *Series) string {
	head := []string{"Update Count"}
	for uc := 0; uc <= s.MaxUC; uc++ {
		head = append(head, fmt.Sprintf("%d", uc))
	}
	rows := [][]string{head}
	for _, id := range QueryIDs {
		row := []string{id}
		for uc := 0; uc <= s.MaxUC; uc++ {
			m := s.Cost[id][uc]
			if !m.Applies {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%d", m.Input))
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: Input Costs for the %s Database with %d%% Loading\n\n",
		strings.Title(string(s.Type)), s.Loading)
	b.WriteString(table(rows))
	return b.String()
}

// Figure7 renders the input pages of every query at update count 0 and 14
// for all eight databases.
func Figure7(series map[Key]*Series) string {
	header1 := []string{"Type"}
	header2 := []string{"Loading"}
	header3 := []string{"Query"}
	for _, k := range AllKeys() {
		s := series[k]
		if k.T == Static {
			header1 = append(header1, string(k.T))
			header2 = append(header2, fmt.Sprintf("%d%%", k.L))
			header3 = append(header3, "UC 0")
			continue
		}
		header1 = append(header1, string(k.T), "")
		header2 = append(header2, fmt.Sprintf("%d%%", k.L), "")
		header3 = append(header3, "UC 0", fmt.Sprintf("UC %d", refUC(s)))
	}
	rows := [][]string{header1, header2, header3}
	for _, id := range QueryIDs {
		row := []string{id}
		for _, k := range AllKeys() {
			s := series[k]
			m0 := s.Cost[id][0]
			if !m0.Applies {
				row = append(row, "-")
				if k.T != Static {
					row = append(row, "-")
				}
				continue
			}
			row = append(row, fmt.Sprintf("%d", m0.Input))
			if k.T != Static {
				row = append(row, fmt.Sprintf("%d", s.Cost[id][refUC(s)].Input))
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("Figure 7: Number of Input Pages for Four Types of Databases\n\n")
	b.WriteString(table(rows))
	b.WriteString("\nNotes: 'UC' denotes update count; '-' denotes not applicable.\n")
	b.WriteString("Static databases do not grow, so a single column suffices.\n")
	return b.String()
}

// Figure8 renders the input-page growth graphs: (a) the temporal database
// with 100% loading and (b) the rollback database with 50% loading, as
// ASCII charts of input pages versus update count.
func Figure8(temporal100, rollback50 *Series) string {
	var b strings.Builder
	b.WriteString("Figure 8: Graphs for Input Pages\n\n")
	b.WriteString("(a) Temporal Database with 100% Loading\n\n")
	b.WriteString(chart(temporal100, []string{"Q09", "Q10", "Q11", "Q03", "Q12", "Q01"}))
	b.WriteString("\n(b) Rollback Database with 50% Loading\n")
	b.WriteString("    (note the jagged growth: odd-numbered updates fill the\n")
	b.WriteString("    half-empty overflow pages left by the previous update)\n\n")
	b.WriteString(chart(rollback50, []string{"Q09", "Q10", "Q03", "Q01"}))
	return b.String()
}

// chart plots query costs against update count in ASCII.
func chart(s *Series, ids []string) string {
	const width, height = 64, 20
	var max int64 = 1
	for _, id := range ids {
		for _, m := range s.Cost[id] {
			if m.Applies && m.Input > max {
				max = m.Input
			}
		}
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "ox+*#@%&"
	for qi, id := range ids {
		mark := marks[qi%len(marks)]
		for uc := 0; uc <= s.MaxUC; uc++ {
			m := s.Cost[id][uc]
			if !m.Applies {
				continue
			}
			x := uc * (width - 1) / maxInt(s.MaxUC, 1)
			y := height - 1 - int(m.Input*int64(height-1)/max)
			if y >= 0 && y < height {
				grid[y][x] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8d |%s\n", max, grid[0])
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%8s |%s\n", "", grid[r])
	}
	fmt.Fprintf(&b, "%8d |%s\n", 0, grid[height-1])
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  0%*s%d (update count)\n", "", width-3, "", s.MaxUC)
	legend := make([]string, len(ids))
	for qi, id := range ids {
		legend[qi] = fmt.Sprintf("%c=%s", marks[qi%len(marks)], id)
	}
	fmt.Fprintf(&b, "%8s  input pages vs update count; %s\n", "", strings.Join(legend, " "))
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure9 renders fixed costs, variable costs, and growth rates for the
// rollback and temporal databases at both loading factors, using the
// paper's definitions:
//
//	variable = cost(0) - fixed
//	rate     = (cost(n) - cost(0)) / (variable * n)
func Figure9(series map[Key]*Series) string {
	keys := []Key{{Rollback, 100}, {Rollback, 50}, {Temporal, 100}, {Temporal, 50}}
	header1 := []string{"Type"}
	header2 := []string{"Loading"}
	header3 := []string{"Query"}
	for _, k := range keys {
		header1 = append(header1, string(k.T), "", "")
		header2 = append(header2, fmt.Sprintf("%d%%", k.L), "", "")
		header3 = append(header3, "Fixed", "Variable", "Rate")
	}
	rows := [][]string{header1, header2, header3}
	for _, id := range QueryIDs {
		row := []string{id}
		for _, k := range keys {
			s := series[k]
			m0 := s.Cost[id][0]
			if !m0.Applies {
				row = append(row, "-", "-", "-")
				continue
			}
			n := refUC(s)
			mN := s.Cost[id][n]
			fixed := FixedCost(k.T, k.L, id, m0)
			variable := m0.Input - fixed
			rate := 0.0
			if variable > 0 {
				rate = float64(mN.Input-m0.Input) / (float64(variable) * float64(n))
			}
			row = append(row,
				fmt.Sprintf("%d", fixed),
				fmt.Sprintf("%d", variable),
				fmtRate(rate))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("Figure 9: Fixed Costs, Variable Costs and Growth Rates\n\n")
	b.WriteString(table(rows))
	b.WriteString("\nNotes: the historical database shows the same variable costs and\n")
	b.WriteString("growth rates as the rollback database. '-' denotes not applicable.\n")
	return b.String()
}

// GrowthRates extracts the measured growth rate of every applicable query
// for one database — the quantity the paper's Section 5.3 observations are
// about (rate ~ loading factor, doubled for temporal databases, independent
// of query and access method).
func GrowthRates(s *Series) map[string]float64 {
	out := map[string]float64{}
	n := refUC(s)
	for _, id := range QueryIDs {
		m0 := s.Cost[id][0]
		if !m0.Applies {
			continue
		}
		fixed := FixedCost(s.Type, s.Loading, id, m0)
		variable := m0.Input - fixed
		if variable <= 0 {
			continue
		}
		out[id] = float64(s.Cost[id][n].Input-m0.Input) / (float64(variable) * float64(n))
	}
	return out
}

// sortedIDs returns the keys of a rate map in query order.
func sortedIDs(m map[string]float64) []string {
	var out []string
	//tdbvet:ignore determinism keys are sorted immediately below
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
