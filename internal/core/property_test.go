package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tdbms/internal/temporal"
)

// TestRollbackSnapshotEquivalence drives a rollback relation through a
// random history of appends, replaces, and deletes while maintaining a
// shadow model of the state after every step; `as of` each step's time must
// reproduce the model's state exactly. This is the defining invariant of a
// rollback database (Section 2: "the ability to roll back to the past state
// of a database").
func TestRollbackSnapshotEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := MustOpen(Options{Now: epoch})
		if _, err := db.Exec(`create persistent r (id = i4, v = i4)
		                      range of x is r`); err != nil {
			return false
		}
		state := map[int]int{} // id -> v
		type snap struct {
			at    temporal.Time
			state map[int]int
		}
		var snaps []snap
		record := func() {
			cp := make(map[int]int, len(state))
			for k, v := range state {
				cp[k] = v
			}
			snaps = append(snaps, snap{at: db.Clock().Now(), state: cp})
		}
		record()
		for step := 0; step < 40; step++ {
			db.Clock().Advance(60)
			id := rng.Intn(8)
			switch op := rng.Intn(3); {
			case op == 0 || state[id] == 0:
				if _, ok := state[id]; ok {
					// Avoid duplicate ids: replace instead.
					v := rng.Intn(1000) + 1
					if _, err := db.Exec(fmt.Sprintf(`replace x (v = %d) where x.id = %d`, v, id)); err != nil {
						return false
					}
					state[id] = v
					break
				}
				v := rng.Intn(1000) + 1
				if _, err := db.Exec(fmt.Sprintf(`append to r (id = %d, v = %d)`, id, v)); err != nil {
					return false
				}
				state[id] = v
			case op == 1:
				v := rng.Intn(1000) + 1
				if _, err := db.Exec(fmt.Sprintf(`replace x (v = %d) where x.id = %d`, v, id)); err != nil {
					return false
				}
				state[id] = v
			default:
				if _, err := db.Exec(fmt.Sprintf(`delete x where x.id = %d`, id)); err != nil {
					return false
				}
				delete(state, id)
			}
			record()
		}
		// Every recorded snapshot must be reconstructible.
		for _, s := range snaps {
			res, err := db.Exec(fmt.Sprintf(
				`retrieve (x.id, x.v) as of %q`, temporal.Format(s.at, temporal.Second)))
			if err != nil {
				return false
			}
			got := map[int]int{}
			for _, row := range res.Rows {
				got[int(row[0].I)] = int(row[1].I)
			}
			if len(got) != len(s.state) {
				return false
			}
			for k, v := range s.state {
				if got[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestValidTimeEquivalence checks the historical counterpart: random
// explicit valid intervals, then `when x overlap "t"` must return exactly
// the versions whose interval contains t under half-open semantics.
func TestValidTimeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := MustOpen(Options{Now: epoch})
		if _, err := db.Exec(`create interval r (id = i4)
		                      range of x is r`); err != nil {
			return false
		}
		type iv struct{ from, to temporal.Time }
		var model []iv
		for i := 0; i < 30; i++ {
			from := epoch + temporal.Time(rng.Intn(10000))
			to := from + temporal.Time(rng.Intn(10000)+1)
			model = append(model, iv{from, to})
			stmt := fmt.Sprintf(`append to r (id = %d) valid from %q to %q`,
				i, temporal.Format(from, temporal.Second), temporal.Format(to, temporal.Second))
			if _, err := db.Exec(stmt); err != nil {
				return false
			}
		}
		for probe := 0; probe < 20; probe++ {
			at := epoch + temporal.Time(rng.Intn(22000))
			want := 0
			for _, m := range model {
				if m.from <= at && at < m.to {
					want++
				}
			}
			res, err := db.Exec(fmt.Sprintf(
				`retrieve (x.id) when x overlap %q`, temporal.Format(at, temporal.Second)))
			if err != nil {
				return false
			}
			if len(res.Rows) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTemporalVersionCountInvariant verifies Section 4's bookkeeping: after
// r replaces and d deletes of distinct live tuples, a temporal interval
// relation stores 1 + 2r (+2 per delete) versions per tuple.
func TestTemporalVersionCountInvariant(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, v = i4)
	                 range of x is r`)
	mustExec(t, db, `append to r (id = 1, v = 0)`)
	const replaces = 5
	for i := 0; i < replaces; i++ {
		db.Clock().Advance(10)
		mustExec(t, db, `replace x (v = x.v + 1) where x.id = 1`)
	}
	db.Clock().Advance(10)
	mustExec(t, db, `delete x where x.id = 1`)

	h, _ := db.handle("r")
	stored := len(scanAll(t, h))
	// 1 original + 2 per replace (marker + new version; the old version is
	// closed in place, not copied) + 1 marker for the delete.
	if want := 1 + 2*replaces + 1; stored != want {
		t.Errorf("stored versions = %d, want %d", stored, want)
	}

	// Exactly one version per transaction-time instant is open in both
	// dimensions before the delete, zero after.
	res := mustExec(t, db, `retrieve (x.v) when x overlap "now"`)
	if len(res.Rows) != 0 {
		t.Errorf("current versions after delete: %d", len(res.Rows))
	}
}

// TestAccessMethodEquivalence runs the same queries under heap, hash, and
// ISAM storage; results must be identical (costs differ, contents must
// not).
func TestAccessMethodEquivalence(t *testing.T) {
	queries := []string{
		`retrieve (x.id, x.v) where x.id = 37`,
		`retrieve (x.id) where x.v = 16`,
		`retrieve (x.v) where x.id > 90 and x.id <= 95`,
		`retrieve (x.id) when x overlap "now"`,
	}
	var want []string
	for mi, method := range []string{"heap", "hash on id", "isam on id"} {
		db := newDB(t)
		mustExec(t, db, `create persistent interval r (id = i4, v = i4)`)
		for i := 1; i <= 100; i++ {
			mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d)`, i, i%25))
		}
		if method != "heap" {
			mustExec(t, db, `modify r to `+method+` where fillfactor = 50`)
		}
		mustExec(t, db, `range of x is r`)
		db.Clock().Advance(5)
		mustExec(t, db, `replace x (v = 999) where x.id = 37`)
		db.Clock().Advance(5)

		var got []string
		for _, q := range queries {
			res := mustExec(t, db, q)
			var rows []string
			for _, row := range res.Rows {
				s := ""
				for _, v := range row {
					s += v.String() + "|"
				}
				rows = append(rows, s)
			}
			sort.Strings(rows)
			got = append(got, fmt.Sprint(rows))
		}
		if mi == 0 {
			want = append(want, got...)
			continue
		}
		for qi := range queries {
			if got[qi] != want[qi] {
				t.Errorf("%s: query %d differs:\n  heap: %s\n  %s: %s",
					method, qi, want[qi], method, got[qi])
			}
		}
	}
}

// TestTwoLevelEquivalence checks that converting to the two-level store
// never changes query results — only costs.
func TestTwoLevelEquivalence(t *testing.T) {
	build := func() *Database {
		db := newDB(t)
		mustExec(t, db, `create persistent interval r (id = i4, v = i4)`)
		for i := 1; i <= 64; i++ {
			mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d)`, i, i))
		}
		mustExec(t, db, `modify r to hash on id where fillfactor = 100
		                 range of x is r`)
		for round := 0; round < 3; round++ {
			db.Clock().Advance(100)
			mustExec(t, db, `replace x (v = x.v + 1000)`)
		}
		db.Clock().Advance(100)
		mustExec(t, db, `delete x where x.id = 10`)
		db.Clock().Advance(100)
		return db
	}
	queries := []string{
		`retrieve (x.id, x.v) when x overlap "now"`,
		`retrieve (x.v) where x.id = 7`,
		`retrieve (x.v) where x.id = 10`,
		fmt.Sprintf(`retrieve (x.id) as of %q when x overlap %q`,
			temporal.Format(epoch+150, temporal.Second), temporal.Format(epoch+150, temporal.Second)),
	}
	run := func(db *Database) []string {
		var out []string
		for _, q := range queries {
			res := mustExec(t, db, q)
			var rows []string
			for _, row := range res.Rows {
				s := ""
				for _, v := range row {
					s += v.String() + "|"
				}
				rows = append(rows, s)
			}
			sort.Strings(rows)
			out = append(out, fmt.Sprint(rows))
		}
		return out
	}

	conv := run(build())
	for _, clustered := range []bool{false, true} {
		db := build()
		if err := db.EnableTwoLevel("r", clustered); err != nil {
			t.Fatal(err)
		}
		two := run(db)
		for i := range queries {
			if conv[i] != two[i] {
				t.Errorf("clustered=%v query %d:\n  conventional: %s\n  two-level:    %s",
					clustered, i, conv[i], two[i])
			}
		}
	}
}

// TestClockMonotonicityUnderDML ensures version chains stay well-formed
// when several operations share one clock instant.
func TestSameInstantOperations(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, v = i4)
	                 range of x is r`)
	mustExec(t, db, `append to r (id = 1, v = 1)`)
	// Replace twice at the same instant: the intermediate version has an
	// empty lifetime in both dimensions and must not surface.
	db.Clock().Advance(10)
	mustExec(t, db, `replace x (v = 2) where x.id = 1`)
	mustExec(t, db, `replace x (v = 3) where x.id = 1`)
	db.Clock().Advance(10)
	res := mustExec(t, db, `retrieve (x.v) when x overlap "now"`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("current after same-instant replaces: %v", res.Rows)
	}
	// The rollback view at the shared instant sees only the final state.
	at := temporal.Format(epoch+10, temporal.Second)
	res = mustExec(t, db, fmt.Sprintf(`retrieve (x.v) as of %q when x overlap %q`, at, at))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("as-of at shared instant: %v", res.Rows)
	}
}
