package bench

import (
	"fmt"
	"testing"

	"tdbms/internal/plan"
)

// plannerEntry is one estimated operator of one benchmark query: the
// planner's predicted rows and pages next to what execution measured, and
// the page q-error (the larger of est/actual and actual/est, the standard
// planner-accuracy metric; 1.0 is a perfect estimate).
type plannerEntry struct {
	DB       string // "temporal/100"
	Query    string // "Q01".."Q12"
	Op       string // operator and variable, e.g. "probe h"
	EstRows  float64
	ActRows  int64
	EstPages float64
	ActPages int64
	QErr     float64
}

// qError is the factor by which an estimate misses a measurement, on
// whichever side it misses. Both quantities are clamped to one page/row:
// an access that estimated 0.3 pages and read 0 is not an infinite error.
func qError(est float64, act int64) float64 {
	e := est
	if e < 1 {
		e = 1
	}
	a := float64(act)
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// plannerReport builds one benchmark database per type, evolves it to
// maxUC, runs ANALYZE, and records est-vs-measured for every estimated
// access-path operator of the twelve queries (cold, like every benchmark
// measurement).
func plannerReport(types []DBType, loading, maxUC int) ([]plannerEntry, error) {
	var out []plannerEntry
	for _, typ := range types {
		b, err := Build(typ, loading)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", typ, err)
		}
		for uc := 0; uc < maxUC; uc++ {
			if err := b.Update(); err != nil {
				return nil, fmt.Errorf("update %s: %w", typ, err)
			}
		}
		if _, err := b.Inner.Exec(`analyze`); err != nil {
			return nil, fmt.Errorf("analyze %s: %w", typ, err)
		}
		dbName := fmt.Sprintf("%s/%d", typ, loading)
		for _, q := range Queries(b.Type) {
			if q.Text == "" {
				continue
			}
			if err := b.Inner.InvalidateBuffers(); err != nil {
				return nil, err
			}
			b.Inner.ResetStats()
			_, tree, err := b.Inner.QueryPlan(q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", q.ID, dbName, err)
			}
			tree.Walk(func(n *plan.Node) {
				if !n.HasEst {
					return
				}
				out = append(out, plannerEntry{
					DB:       dbName,
					Query:    q.ID,
					Op:       fmt.Sprintf("%s %s", n.Op, n.Var),
					EstRows:  n.EstRows,
					ActRows:  n.ActRows,
					EstPages: n.EstPages,
					ActPages: n.IO.Reads,
					QErr:     qError(n.EstPages, n.IO.Reads),
				})
			})
		}
	}
	return out, nil
}

// TestPlannerQError checks the cost model against the paper databases:
// after ANALYZE, every estimated access-path operator of the twelve
// queries must predict its page reads within a q-error of 4 — estimates
// good enough that no access-path decision is off by more than a small
// constant factor.
func TestPlannerQError(t *testing.T) {
	const maxQErr = 4.0
	entries, err := plannerReport(Types, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no estimated operators: ANALYZE did not reach the planner")
	}
	for _, e := range entries {
		if e.QErr > maxQErr {
			t.Errorf("%s %s %s: est %.1f pages, read %d (q-error %.2f > %.0f)",
				e.DB, e.Query, e.Op, e.EstPages, e.ActPages, e.QErr, maxQErr)
		}
	}
}
