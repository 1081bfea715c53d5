package core_test

import (
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/page"
)

// TestSubstitutionJoinWalkCounts counts the chain walks one execution of
// each of Figure 4's joins records over the benchmark's database (20 480
// tuples a relation, eight rounds of updates): Q09, probing the hashed
// relation on each current tuple's amount, records exactly one tape per
// distinct bucket its keys reach (2 561 for 20 480 probes); Q10, probing
// the ISAM relation, at most one per distinct data range its keys'
// directory descents find (206 for 20 480 probes).
func TestSubstitutionJoinWalkCounts(t *testing.T) {
	sdb, err := bench.BuildScaled(bench.Temporal, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	for range 8 {
		if err := sdb.Update(); err != nil {
			t.Fatal(err)
		}
	}
	db := sdb.Inner
	texts := map[string]string{}
	for _, q := range bench.Queries(bench.Temporal) {
		texts[q.ID] = q.Text
	}
	for _, j := range []struct {
		id, inner, outerKeys string
		exact                bool // one tape per distinct bucket
	}{
		{"Q09", sdb.H, `retrieve (i.amount) when i overlap "now"`, true},
		{"Q10", sdb.I, `retrieve (h.amount) when h overlap "now"`, false},
	} {
		keys, err := db.Exec(j.outerKeys)
		if err != nil {
			t.Fatal(err)
		}
		chains, v := core.ProbeChains(db, j.inner)
		ranges := map[[2]page.ID]bool{}
		for _, row := range keys.Rows {
			first, last, err := chains.Locate(v, row[0].AsInt())
			if err != nil {
				t.Fatal(err)
			}
			ranges[[2]page.ID{first, last}] = true
		}
		c := db.NewSession(j.id)
		if _, err := c.Exec(`range of h is ` + sdb.H + `
		                     range of i is ` + sdb.I); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(texts[j.id]); err != nil {
			t.Fatal(err)
		}
		walks := core.SubstWalks(c)
		if len(walks) != 1 {
			t.Fatalf("%s: %d substitution joins cached, want 1", j.id, len(walks))
		}
		recorded, alone := walks[0][0], walks[0][1]
		t.Logf("%s: %d probes, %d distinct ranges, %d tapes recorded, %d chains walked alone",
			j.id, len(keys.Rows), len(ranges), recorded, alone)
		if recorded > int64(len(ranges)) || j.exact && recorded != int64(len(ranges)) {
			t.Errorf("%s: %d tapes recorded for %d distinct ranges", j.id, recorded, len(ranges))
		}
	}
}
