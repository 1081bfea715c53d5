package bench

import (
	"strings"
	"testing"

	"tdbms/internal/core"
	"tdbms/internal/temporal"
)

func TestBuildGeometry(t *testing.T) {
	// Figure 5, update count 0.
	cases := []struct {
		typ     DBType
		loading int
		wantH   int
		wantI   int
	}{
		{Static, 100, 115, 115},
		{Static, 50, 257, 259},
		{Rollback, 100, 129, 129},
		{Rollback, 50, 257, 259},
		{Historical, 100, 129, 129},
		{Temporal, 100, 129, 129},
		{Temporal, 50, 257, 259},
	}
	for _, c := range cases {
		b, err := Build(c.typ, c.loading)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.typ, c.loading, err)
		}
		h, i, err := b.Pages()
		if err != nil {
			t.Fatal(err)
		}
		if h != c.wantH || i != c.wantI {
			t.Errorf("%s/%d%%: H=%d I=%d, want %d/%d", c.typ, c.loading, h, i, c.wantH, c.wantI)
		}
	}
}

func TestSeedSelectivity(t *testing.T) {
	// Q11's as-of constant must select exactly 2 versions (paper: variable
	// cost 385 = 129 + 2 x 128); Q03's selects a handful.
	b, err := Build(Temporal, 100)
	if err != nil {
		t.Fatal(err)
	}
	n4, err := b.TxStartCount(temporal.Date(1980, 1, 1, 4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n4 != 2 {
		t.Errorf("tuples with transaction start <= 4:00 1/1/80: %d, want 2", n4)
	}
	n8, err := b.TxStartCount(temporal.Date(1980, 1, 1, 8, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n8 < 2 || n8 > 20 {
		t.Errorf("tuples with transaction start <= 8:00 1/1/80: %d, want a handful", n8)
	}
}

func TestQueriesApplicability(t *testing.T) {
	for _, typ := range Types {
		qs := Queries(typ)
		if len(qs) != 12 {
			t.Fatalf("%s: %d queries", typ, len(qs))
		}
		wantNA := map[string]bool{}
		switch typ {
		case Static, Historical:
			wantNA = map[string]bool{"Q03": true, "Q04": true, "Q11": true, "Q12": true}
		case Rollback:
			wantNA = map[string]bool{"Q11": true, "Q12": true}
		}
		for _, q := range qs {
			if (q.Text == "") != wantNA[q.ID] {
				t.Errorf("%s %s: applicable=%v, want %v", typ, q.ID, q.Text != "", !wantNA[q.ID])
			}
		}
	}
}

// TestPaperCosts verifies the update-count-0 costs of Figure 7 and the
// growth rates of Figure 9 on the temporal database with 100% loading.
func TestPaperCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	s, err := Run(Temporal, 100, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7, temporal 100% at UC 0 (Q09/Q10 depend on the width of the
	// temporary relation, which differed in Ingres; see EXPERIMENTS.md).
	want0 := map[string]int64{
		"Q01": 1, "Q02": 2, "Q03": 129, "Q04": 128,
		"Q05": 1, "Q06": 2, "Q07": 129, "Q08": 128,
		"Q11": 385, "Q12": 131,
	}
	for id, want := range want0 {
		if got := s.Cost[id][0].Input; got != want {
			t.Errorf("%s at UC 0: %d pages, want %d", id, got, want)
		}
	}
	// Figure 6, UC 14.
	want14 := map[string]int64{
		"Q01": 29, "Q02": 30, "Q03": 3717, "Q04": 3712,
		"Q05": 29, "Q06": 30, "Q07": 3717, "Q08": 3712,
		"Q11": 11141, "Q12": 3743,
	}
	for id, want := range want14 {
		if got := s.Cost[id][14].Input; got != want {
			t.Errorf("%s at UC 14: %d pages, want %d", id, got, want)
		}
	}
	// Figure 9: every growth rate on this database is ~2.0 (twice the
	// loading factor), independent of query and access method.
	for id, rate := range GrowthRates(s) {
		if rate < 1.97 || rate > 2.03 {
			t.Errorf("%s growth rate = %.3f, want ~2.0", id, rate)
		}
	}
	// Sizes at UC 14 (Figure 5).
	if s.SizeH[14] != 3717 || s.SizeI[14] != 3713 {
		t.Errorf("sizes at UC 14: H=%d I=%d, want 3717/3713", s.SizeH[14], s.SizeI[14])
	}
	// Output-tuple counts stay constant except for the version scans and
	// Q12 (Section 5.1).
	for _, id := range QueryIDs {
		if id == "Q01" || id == "Q02" || id == "Q12" {
			if s.Cost[id][14].Rows <= s.Cost[id][0].Rows {
				t.Errorf("%s: output did not grow (%d -> %d)", id, s.Cost[id][0].Rows, s.Cost[id][14].Rows)
			}
			continue
		}
		if !s.Cost[id][0].Applies {
			continue
		}
		if s.Cost[id][0].Rows != s.Cost[id][14].Rows {
			t.Errorf("%s: output changed %d -> %d", id, s.Cost[id][0].Rows, s.Cost[id][14].Rows)
		}
	}
}

// TestFigure7Corners verifies the remaining Figure 7 columns against the
// paper: rollback at 100% and temporal at 50% loading.
func TestFigure7Corners(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	roll, err := Run(Rollback, 100, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string][2]int64{
		"Q01": {1, 15}, "Q02": {2, 16}, "Q03": {129, 1927}, "Q04": {128, 1920},
		"Q05": {1, 15}, "Q06": {2, 16}, "Q07": {129, 1927}, "Q08": {128, 1920},
	} {
		if got := roll.Cost[id][0].Input; got != want[0] {
			t.Errorf("rollback/100 %s at UC0 = %d, want %d", id, got, want[0])
		}
		if got := roll.Cost[id][14].Input; got != want[1] {
			t.Errorf("rollback/100 %s at UC14 = %d, want %d", id, got, want[1])
		}
	}

	tp50, err := Run(Temporal, 50, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string][2]int64{
		"Q01": {1, 15}, "Q02": {3, 17}, "Q03": {257, 3839}, "Q04": {256, 3840},
		"Q05": {1, 15}, "Q06": {3, 17}, "Q07": {257, 3839}, "Q08": {256, 3840},
		"Q11": {769, 11519}, "Q12": {259, 3857},
	} {
		if got := tp50.Cost[id][0].Input; got != want[0] {
			t.Errorf("temporal/50 %s at UC0 = %d, want %d", id, got, want[0])
		}
		if got := tp50.Cost[id][14].Input; got != want[1] {
			t.Errorf("temporal/50 %s at UC14 = %d, want %d", id, got, want[1])
		}
	}
	// Figure 5 sizes for the 50% temporal database.
	if tp50.SizeH[14] != 3839 || tp50.SizeI[14] != 3843 {
		t.Errorf("temporal/50 sizes at UC14: %d/%d, want 3839/3843", tp50.SizeH[14], tp50.SizeI[14])
	}
}

// TestRollback50GrowthRates checks the other corner of Figure 9: growth
// rates ~0.5 on the rollback database with 50% loading.
func TestRollback50GrowthRates(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	s, err := Run(Rollback, 50, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, rate := range GrowthRates(s) {
		if rate < 0.47 || rate > 0.53 {
			t.Errorf("%s growth rate = %.3f, want ~0.5", id, rate)
		}
	}
	// Jagged growth (Figure 8b): at 50% loading the first update round
	// fills the primary page's free slots (cost stays 1), and odd rounds
	// after that fill the half-empty overflow page left by the previous
	// round, giving plateaus between consecutive counts.
	c := s.Cost["Q01"]
	if c[0].Input != 1 || c[1].Input != 1 {
		t.Errorf("UC0/UC1 costs %d/%d, want 1/1 (free slots absorb round 1)", c[0].Input, c[1].Input)
	}
	if c[2].Input != c[3].Input {
		t.Errorf("expected plateau between UC2 (%d) and UC3 (%d)", c[2].Input, c[3].Input)
	}
	if c[14].Input != 8 {
		t.Errorf("Q01 at UC14 = %d, want 8 (Figure 7)", c[14].Input)
	}
}

// TestHistoricalMatchesRollback verifies the Figure 9 note: "the
// historical database shows the same variable costs and the growth rates
// as the rollback database".
func TestHistoricalMatchesRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	hist, err := Run(Historical, 100, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	roll, err := Run(Rollback, 100, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range QueryIDs {
		hm, rm := hist.Cost[id][0], roll.Cost[id][0]
		if !hm.Applies || !rm.Applies {
			continue
		}
		// Q09/Q10 temporaries differ slightly in width between the types;
		// the keyed and scan queries must agree exactly.
		if id == "Q09" || id == "Q10" {
			continue
		}
		for uc := 0; uc <= 6; uc++ {
			h, r := hist.Cost[id][uc].Input, roll.Cost[id][uc].Input
			if h != r {
				t.Errorf("%s at UC %d: historical %d, rollback %d", id, uc, h, r)
			}
		}
	}
	// Sizes evolve identically (Figure 5).
	for uc := 0; uc <= 6; uc++ {
		if hist.SizeH[uc] != roll.SizeH[uc] || hist.SizeI[uc] != roll.SizeI[uc] {
			t.Errorf("sizes at UC %d differ: H %d/%d I %d/%d",
				uc, hist.SizeH[uc], roll.SizeH[uc], hist.SizeI[uc], roll.SizeI[uc])
		}
	}
}

func TestFigureFormatting(t *testing.T) {
	// Small-scale smoke test of every formatter.
	series, err := AllSeries(2, 0, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f5 := Figure5(series)
	if !strings.Contains(f5, "Growth Rate") {
		t.Error("Figure5 missing growth rate row")
	}
	f6 := Figure6(series[Key{Temporal, 100}])
	if !strings.Contains(f6, "Q12") {
		t.Error("Figure6 missing Q12")
	}
	f7 := Figure7(series)
	if !strings.Contains(f7, "historical") {
		t.Error("Figure7 missing historical columns")
	}
	f8 := Figure8(series[Key{Temporal, 100}], series[Key{Rollback, 50}])
	if !strings.Contains(f8, "update count") {
		t.Error("Figure8 missing axis label")
	}
	f9 := Figure9(series)
	if !strings.Contains(f9, "Fixed") {
		t.Error("Figure9 missing header")
	}
}

func TestNonUniformSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := RunNonUniform(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.BucketSize != 8 {
		t.Errorf("bucket size %d, want 8", r.BucketSize)
	}
	// Section 5.4: hot access 257 pages, cold 1 page, weighted average 3,
	// growth rate 2 — same as uniform.
	if r.HotCost[1] != 257 {
		t.Errorf("hot access at avg UC 1 = %d, want 257", r.HotCost[1])
	}
	if r.ColdCost[1] != 1 {
		t.Errorf("cold access = %d, want 1", r.ColdCost[1])
	}
	if r.Weighted[1] != 3 {
		t.Errorf("weighted average = %.2f, want 3.00", r.Weighted[1])
	}
	if r.Rate[1] != 2 {
		t.Errorf("growth rate = %.2f, want 2.00", r.Rate[1])
	}
	if !strings.Contains(r.Format(), "257") {
		t.Error("Format missing data")
	}
}

func TestFigure10Small(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := RunFigure10(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At UC 4: conventional Q05 costs 9; the two-level store keeps it at 1.
	if r.ConvN["Q05"] != 9 {
		t.Errorf("conventional Q05 at UC4 = %d, want 9", r.ConvN["Q05"])
	}
	if r.Simple["Q05"] != 1 {
		t.Errorf("simple two-level Q05 = %d, want 1", r.Simple["Q05"])
	}
	if r.Simple["Q07"] != 129 {
		t.Errorf("simple two-level Q07 = %d, want 129", r.Simple["Q07"])
	}
	// Clustered version scan: 1 primary + ceil(8/8)=1 history page.
	if r.Clustered["Q01"] != 2 {
		t.Errorf("clustered Q01 at UC4 = %d, want 2", r.Clustered["Q01"])
	}
	// 2-level hash index answers Q08 in 2 pages at any update count.
	if r.Idx["2-level hash"]["Q08"] != 2 {
		t.Errorf("2-level hash Q08 = %d, want 2", r.Idx["2-level hash"]["Q08"])
	}
	if !strings.Contains(r.Format(), "Clustered") {
		t.Error("Format missing columns")
	}
}
