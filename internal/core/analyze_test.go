package core

import (
	"reflect"
	"testing"
)

// statSnapshot copies the comparable parts of a Stats for later
// comparison: everything the DML hooks maintain incrementally (Pages and
// index selectivities are rebuild-only and excluded).
type statSnapshot struct {
	versions, current int64
	chains            map[int64]int64
}

func snapStats(t *testing.T, db *Database, rel string) statSnapshot {
	t.Helper()
	desc, err := db.Catalog().Get(rel)
	if err != nil {
		t.Fatalf("catalog.Get(%s): %v", rel, err)
	}
	if desc.Stat == nil {
		t.Fatalf("%s: no statistics", rel)
	}
	return statSnapshot{versions: desc.Stat.Versions, current: desc.Stat.Current, chains: desc.Stat.ChainLens()}
}

// TestIncrementalStatsMatchRebuild drives a DML mix over every relation
// type and checks the incrementally maintained statistics agree exactly
// with a from-scratch ANALYZE.
func TestIncrementalStatsMatchRebuild(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create st (id = i4, v = i4)`)
	mustExec(t, db, `create persistent rb (id = i4, v = i4)`)
	mustExec(t, db, `create interval hi (id = i4, v = i4)`)
	mustExec(t, db, `create event he (id = i4, v = i4)`)
	mustExec(t, db, `create persistent interval ti (id = i4, v = i4)`)
	mustExec(t, db, `create persistent event te (id = i4, v = i4)`)
	rels := []string{"st", "rb", "hi", "he", "ti", "te"}
	for _, r := range rels {
		mustExec(t, db, `range of `+r+`x is `+r)
		for i := 1; i <= 5; i++ {
			mustExec(t, db, `append to `+r+` (id = `+itoa(i)+`, v = 0)`)
		}
	}
	mustExec(t, db, `analyze`)

	// A mix per relation: updates (growing version chains where the type
	// versions), a delete, and fresh inserts — with clock movement so the
	// temporal semantics engage.
	for _, r := range rels {
		db.Clock().Advance(100)
		mustExec(t, db, `replace `+r+`x (v = `+r+`x.v + 1) where `+r+`x.id = 1`)
		db.Clock().Advance(100)
		mustExec(t, db, `replace `+r+`x (v = `+r+`x.v + 1) where `+r+`x.id <= 2`)
		db.Clock().Advance(100)
		mustExec(t, db, `delete `+r+`x where `+r+`x.id = 3`)
		db.Clock().Advance(100)
		mustExec(t, db, `append to `+r+` (id = 6, v = 9)`)
	}

	same := func(r, what string, got, want statSnapshot) {
		t.Helper()
		if got.versions != want.versions || got.current != want.current {
			t.Errorf("%s: %s versions/current %d/%d, rebuild %d/%d",
				r, what, got.versions, got.current, want.versions, want.current)
		}
		if !reflect.DeepEqual(got.chains, want.chains) {
			t.Errorf("%s: %s chains %v, rebuild %v", r, what, got.chains, want.chains)
		}
	}
	for _, r := range rels {
		incremental := snapStats(t, db, r)
		mustExec(t, db, `analyze `+r)
		fresh := snapStats(t, db, r)
		same(r, "incremental", incremental, fresh)

		// A statement that fails after replacing ids 1 and 2 drops the
		// statistics it noted into, and the next analyze finds the
		// relation as the statement found it.
		x := r + "x"
		if _, err := db.Exec(`replace ` + x + ` (v = ` + x + `.v + 10 / (` + x + `.id - 4))`); err == nil {
			t.Fatalf("%s: the replace dividing by zero succeeded", r)
		}
		desc, err := db.Catalog().Get(r)
		if err != nil {
			t.Fatal(err)
		}
		if desc.Stat != nil {
			t.Fatalf("%s: a failed statement left statistics", r)
		}
		mustExec(t, db, `analyze `+r)
		same(r, "after a failed statement", snapStats(t, db, r), fresh)
	}
}

// TestAnalyzeIndexStats checks the per-index selectivity collected by a
// rebuild: all versions are indexed, and distinct counts come from the
// indexed attribute's values.
func TestAnalyzeIndexStats(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent r (id = i4, grp = i4)`)
	mustExec(t, db, `range of x is r`)
	for i := 1; i <= 6; i++ {
		mustExec(t, db, `append to r (id = `+itoa(i)+`, grp = `+itoa(1+i%2)+`)`)
	}
	mustExec(t, db, `index on r is grpidx (grp)`)
	mustExec(t, db, `replace x (grp = 3) where x.id = 1`) // one superseded version
	mustExec(t, db, `analyze r`)

	desc, err := db.Catalog().Get("r")
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := desc.Stat.Index("grpidx")
	if !ok {
		t.Fatal("no stats for grpidx")
	}
	if ix.Entries != desc.Stat.Versions || ix.Entries != 7 {
		t.Errorf("entries = %d, versions = %d, want 7", ix.Entries, desc.Stat.Versions)
	}
	if ix.Distinct != 3 { // grp in {1, 2, 3}
		t.Errorf("distinct = %d, want 3", ix.Distinct)
	}
}

// TestStatsInvalidation checks the bulk paths that bypass the DML hooks
// drop statistics rather than leaving them stale.
func TestStatsInvalidation(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4, v = i4)`)
	mustExec(t, db, `append to r (id = 1, v = 1)`)
	mustExec(t, db, `analyze r`)
	desc, _ := db.Catalog().Get("r")
	if desc.Stat == nil {
		t.Fatal("analyze left no stats")
	}
	mustExec(t, db, `modify r to hash on id`)
	if desc.Stat != nil {
		t.Fatal("modify kept stale stats")
	}

	mustExec(t, db, `analyze r`)
	if _, err := db.Load("r", nil); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if desc.Stat != nil {
		t.Fatal("bulk load kept stale stats")
	}
}

// TestAnalyzeParsing exercises the bare form followed by another
// statement: `analyze` must not swallow the next statement's keyword as a
// relation name.
func TestAnalyzeBareThenStatement(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4)
		append to r (id = 1)
		analyze
		range of x is r`)
	r := mustExec(t, db, `retrieve (x.id)`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %v", r.Rows)
	}
	desc, _ := db.Catalog().Get("r")
	if desc.Stat == nil || desc.Stat.Versions != 1 || desc.Stat.Current != 1 {
		t.Fatalf("stats after bare analyze: %+v", desc.Stat)
	}
}
