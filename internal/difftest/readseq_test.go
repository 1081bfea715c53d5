package difftest

import (
	"fmt"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
)

// TestReadFaultStatements pins where a relation's n-th page read falls. A
// `rel:read@n` rule counts the ReadPage calls the engine makes on the
// wrapped file, so the statement it sabotages moves as soon as the read
// path issues one read more, one fewer, or two in a different order. The
// table was recorded before views replaced copies in the buffer manager: a
// wrapped store cannot lend its pages, and must go on seeing every read.
//
// Each case reopens a copy of the same closed database (temporal, 100 % loading, one
// update round) with one rule, runs the twelve benchmark queries in order
// plus one update round, and names the first step that failed: "open"
// (the reopen itself reads pages to rebuild indexes), a query id, "update",
// or "none".
func TestReadFaultStatements(t *testing.T) {
	dir := t.TempDir()
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{Dir: dir})
	if err != nil {
		t.Fatalf("clean build: %v", err)
	}
	if err := b.Update(); err != nil {
		t.Fatalf("clean update: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	image := dirState(t, dir)

	// The last read of each step and the first of the next: the cumulative
	// read count of every statement, exactly.
	type at struct {
		n    int
		step string
	}
	want := map[string][]at{
		"temporal_h": {
			{1, "Q01"}, {3, "Q01"}, {4, "Q03"}, {390, "Q03"}, {391, "Q05"}, {393, "Q05"},
			{394, "Q07"}, {780, "Q07"}, {781, "Q09"}, {3852, "Q09"}, {3853, "Q10"}, {4239, "Q10"},
			{4240, "Q11"}, {4626, "Q11"}, {4627, "Q12"}, {4629, "Q12"},
			{4630, "update"}, {14942, "update"}, {14943, "none"},
		},
		"temporal_i": {
			{1, "Q02"}, {4, "Q02"}, {5, "Q04"}, {388, "Q04"}, {389, "Q06"}, {392, "Q06"},
			{393, "Q08"}, {776, "Q08"}, {777, "Q09"}, {1160, "Q09"}, {1161, "Q10"}, {5256, "Q10"},
			{5257, "Q11"}, {6024, "Q11"}, {6025, "Q12"}, {6408, "Q12"}, {6409, "update"},
		},
	}
	for rel, cases := range want {
		for _, c := range cases {
			rule := fmt.Sprintf("%s:read@%d", rel, c.n)
			if got := readFaultStep(t, image, rule); got != c.step {
				t.Errorf("%s sabotaged %s, recorded %s", rule, got, c.step)
			}
		}
	}
}

// readFaultStep runs the fixed statement sequence against a fresh copy of
// image under one fault rule and names the first step the rule broke.
func readFaultStep(t *testing.T, image map[string][]byte, rule string) string {
	t.Helper()
	sched := faultfs.MustParse(rule)
	db, err := Reopen(restoreState(t, image, -1), bench.Temporal, sched)
	if err != nil {
		if !faultfs.IsInjected(err) {
			t.Fatalf("%s: reopen: %v", rule, err)
		}
		return "open"
	}
	defer db.Close()
	for _, q := range bench.Queries(bench.Temporal) {
		if _, err := db.Exec(q.Text); err != nil {
			if !faultfs.IsInjected(err) {
				t.Fatalf("%s: %s: %v", rule, q.ID, err)
			}
			return q.ID
		}
	}
	if err := updateRound(db); err != nil {
		if !faultfs.IsInjected(err) {
			t.Fatalf("%s: update: %v", rule, err)
		}
		return "update"
	}
	return "none"
}
