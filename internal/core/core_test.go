package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/page"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// epoch is the benchmark's time origin: Jan 1, 1980.
var epoch = temporal.Date(1980, 1, 1, 0, 0, 0)

func newDB(t *testing.T) *Database {
	t.Helper()
	return MustOpen(Options{Now: epoch})
}

// scanAll returns copies of every stored version of h.
func scanAll(t *testing.T, h *relHandle) [][]byte {
	t.Helper()
	var tups [][]byte
	if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		tups = append(tups, bytes.Clone(tup))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tups
}

func mustExec(t *testing.T, db *Database, src string) *Result {
	t.Helper()
	res, err := db.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func rowInts(t *testing.T, r *Result) [][]int64 {
	t.Helper()
	out := make([][]int64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			if !v.IsNumeric() {
				t.Fatalf("row %d col %d is %v", i, j, v)
			}
			out[i][j] = v.AsInt()
		}
	}
	return out
}

// --- static relations ---

func TestStaticCRUD(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create parts (pno = i4, name = c10, qty = i4)`)
	mustExec(t, db, `append to parts (pno = 1, name = "bolt", qty = 100)`)
	mustExec(t, db, `append to parts (pno = 2, name = "nut", qty = 50)`)
	mustExec(t, db, `range of p is parts`)

	r := mustExec(t, db, `retrieve (p.pno, p.qty) where p.name = "nut"`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 || r.Rows[0][1].I != 50 {
		t.Fatalf("rows: %v", r.Rows)
	}
	if len(r.Cols) != 2 {
		t.Fatalf("static query grew valid columns: %v", r.Cols)
	}

	r = mustExec(t, db, `replace p (qty = p.qty + 5) where p.pno = 2`)
	if r.Affected != 1 {
		t.Fatalf("replace affected %d", r.Affected)
	}
	r = mustExec(t, db, `retrieve (p.qty) where p.pno = 2`)
	if r.Rows[0][0].I != 55 {
		t.Fatalf("qty after replace: %v", r.Rows[0][0])
	}

	mustExec(t, db, `delete p where p.pno = 1`)
	r = mustExec(t, db, `retrieve (p.pno)`)
	if len(r.Rows) != 1 {
		t.Fatalf("after delete: %v", r.Rows)
	}

	// Static relations reject temporal clauses.
	if _, err := db.Exec(`retrieve (p.pno) when p overlap "now"`); err == nil {
		t.Error("when-clause on a static relation succeeded")
	}
}

func TestCreateErrors(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (a = i4)`)
	if _, err := db.Exec(`create r (a = i4)`); err == nil {
		t.Error("duplicate create succeeded")
	}
	if _, err := db.Exec(`create s (valid_from = i4)`); err == nil {
		t.Error("reserved attribute name accepted")
	}
	if _, err := db.Exec(`range of x is nosuch`); err == nil {
		t.Error("range over missing relation succeeded")
	}
	if _, err := db.Exec(`retrieve (z.a)`); err == nil {
		t.Error("undeclared range variable succeeded")
	}
}

// --- rollback relations ---

func TestRollbackSemantics(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent acct (id = i4, bal = i4)`)
	mustExec(t, db, `range of a is acct`)
	mustExec(t, db, `append to acct (id = 1, bal = 10)`)

	t1 := db.Clock().Now()
	db.Clock().Advance(100)
	mustExec(t, db, `replace a (bal = 20) where a.id = 1`)
	db.Clock().Advance(100)
	mustExec(t, db, `replace a (bal = 30) where a.id = 1`)

	// Default slice: as of now — only the current version.
	r := mustExec(t, db, `retrieve (a.bal) where a.id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 30 {
		t.Fatalf("current state: %v", r.Rows)
	}

	// Roll back to just after creation.
	r = mustExec(t, db, fmt.Sprintf(`retrieve (a.bal) as of %q`, temporal.Format(t1, temporal.Second)))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 10 {
		t.Fatalf("as-of t1: %v", r.Rows)
	}

	// Roll back through a range: every state that existed in the window.
	r = mustExec(t, db, fmt.Sprintf(`retrieve (a.bal) as of %q through "now"`, temporal.Format(t1, temporal.Second)))
	if len(r.Rows) != 3 {
		t.Fatalf("as-of through: %v", r.Rows)
	}

	// Before creation: nothing.
	r = mustExec(t, db, `retrieve (a.bal) as of "1/1/79"`)
	if len(r.Rows) != 0 {
		t.Fatalf("before creation: %v", r.Rows)
	}

	// Deletion closes the version; the past still shows it.
	db.Clock().Advance(100)
	mustExec(t, db, `delete a where a.id = 1`)
	r = mustExec(t, db, `retrieve (a.bal)`)
	if len(r.Rows) != 0 {
		t.Fatalf("after delete: %v", r.Rows)
	}
	r = mustExec(t, db, fmt.Sprintf(`retrieve (a.bal) as of %q`, temporal.Format(t1, temporal.Second)))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 10 {
		t.Fatalf("rollback after delete: %v", r.Rows)
	}
}

// --- historical relations ---

func TestHistoricalSemantics(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create interval job (emp = c10, title = c10)`)
	mustExec(t, db, `range of j is job`)
	// Record history explicitly with the valid clause.
	mustExec(t, db, `append to job (emp = "ann", title = "eng") valid from "1/1/80" to "6/1/80"`)
	mustExec(t, db, `append to job (emp = "ann", title = "mgr") valid from "6/1/80" to "forever"`)

	db.Clock().Set(temporal.Date(1981, 1, 1, 0, 0, 0))

	// What was Ann in March 1980?
	r := mustExec(t, db, `retrieve (j.title) when j overlap "3/1/80"`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "eng" {
		t.Fatalf("march title: %v", r.Rows)
	}
	// Valid columns are appended.
	if len(r.Cols) != 3 || r.Cols[1] != "valid_from" {
		t.Fatalf("cols: %v", r.Cols)
	}

	// Current title.
	r = mustExec(t, db, `retrieve (j.title) when j overlap "now"`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "mgr" {
		t.Fatalf("current title: %v", r.Rows)
	}

	// Full history (no when clause).
	r = mustExec(t, db, `retrieve (j.title)`)
	if len(r.Rows) != 2 {
		t.Fatalf("history: %v", r.Rows)
	}

	// Historical delete closes validity at now; under half-open semantics
	// the tuple is immediately invisible to `overlap "now"`.
	mustExec(t, db, `delete j where j.title = "mgr"`)
	r = mustExec(t, db, `retrieve (j.title) when j overlap "now"`)
	if len(r.Rows) != 0 {
		t.Fatalf("after historical delete: %v", r.Rows)
	}
	// But history remembers: time constants are instants, so probe one
	// instant in each tenure.
	r = mustExec(t, db, `retrieve (j.title) when j overlap "3/1/80" or j overlap "7/1/80"`)
	if len(r.Rows) != 2 {
		t.Fatalf("history after delete: %v", r.Rows)
	}
}

func TestEventRelation(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create event ping (host = c8)`)
	mustExec(t, db, `range of e is ping`)
	mustExec(t, db, `append to ping (host = "a") valid at "08:00 1/1/80"`)
	mustExec(t, db, `append to ping (host = "b") valid at "09:00 1/1/80"`)

	r := mustExec(t, db, `retrieve (e.host) when e overlap "08:00 1/1/80"`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "a" {
		t.Fatalf("event query: %v", r.Rows)
	}
	// start of e precede "08:30 1/1/80"
	r = mustExec(t, db, `retrieve (e.host) when e precede "08:30 1/1/80"`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "a" {
		t.Fatalf("precede: %v", r.Rows)
	}
	// Interval valid clause on an event relation is rejected.
	if _, err := db.Exec(`append to ping (host = "c") valid from "1/1/80" to "2/1/80"`); err == nil {
		t.Error("interval valid clause accepted by event relation")
	}
}

// --- temporal relations ---

func TestTemporalSemantics(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval sal (emp = i4, amount = i4)`)
	mustExec(t, db, `range of s is sal`)
	mustExec(t, db, `append to sal (emp = 1, amount = 100)`)

	t0 := db.Clock().Now()
	db.Clock().Advance(1000)
	t1 := db.Clock().Now()
	mustExec(t, db, `replace s (amount = 200) where s.emp = 1`)
	db.Clock().Advance(1000)

	// Current state: one tuple.
	r := mustExec(t, db, `retrieve (s.amount) when s overlap "now"`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 200 {
		t.Fatalf("current: %v", r.Rows)
	}

	// Version scan (no clauses): the valid history as of now — the closed
	// validity record plus the current version.
	r = mustExec(t, db, `retrieve (s.amount)`)
	if len(r.Rows) != 2 {
		t.Fatalf("version scan: %v", r.Rows)
	}

	// Valid history as of now: salary at t0 was 100.
	r = mustExec(t, db, fmt.Sprintf(`retrieve (s.amount) when s overlap %q`, temporal.Format(t0+10, temporal.Second)))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 100 {
		t.Fatalf("past validity: %v", r.Rows)
	}

	// Rollback: as the database stood before the replace, the tuple was
	// believed valid from t0 to forever.
	r = mustExec(t, db, fmt.Sprintf(`retrieve (s.amount) as of %q`, temporal.Format(t1-10, temporal.Second)))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 100 {
		t.Fatalf("rollback: %v", r.Rows)
	}

	// A temporal replace writes two new versions: 1 original + 2 = 3.
	r = mustExec(t, db, `retrieve (s.emp, s.amount) as of "now" when s overlap "beginning" or s overlap "now" or s precede "now"`)
	_ = r
	h, _ := db.handle("sal")
	if count := len(scanAll(t, h)); count != 3 {
		t.Fatalf("stored versions = %d, want 3 (replace inserts two new versions)", count)
	}
}

func TestTemporalDeleteMarker(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4)`)
	mustExec(t, db, `range of x is r`)
	mustExec(t, db, `append to r (id = 7)`)
	db.Clock().Advance(50)
	mustExec(t, db, `delete x where x.id = 7`)
	db.Clock().Advance(50)

	// Gone now...
	r := mustExec(t, db, `retrieve (x.id) when x overlap "now"`)
	if len(r.Rows) != 0 {
		t.Fatalf("after delete: %v", r.Rows)
	}
	// ... but the marker keeps the validity history as of now.
	r = mustExec(t, db, `retrieve (x.id)`)
	if len(r.Rows) != 1 {
		t.Fatalf("marker missing: %v", r.Rows)
	}
	vf := temporal.Time(r.Rows[0][1].I)
	vt := temporal.Time(r.Rows[0][2].I)
	if vt != epoch+50 || vf != epoch {
		t.Fatalf("marker validity [%v,%v], want [%v,%v]", vf, vt, epoch, epoch+50)
	}
}

func TestFigure2Semantics(t *testing.T) {
	// The Figure 2 query shape: join on overlap with explicit valid clause.
	db := newDB(t)
	mustExec(t, db, `create persistent interval ha (id = i4, seq = i4)`)
	mustExec(t, db, `create persistent interval ia (id = i4, seq = i4, amount = i4)`)
	mustExec(t, db, `range of h is ha
	                 range of i is ia`)
	mustExec(t, db, `append to ha (id = 500, seq = 1)`)
	db.Clock().Advance(100)
	mustExec(t, db, `append to ia (id = 9, seq = 2, amount = 73700)`)
	db.Clock().Advance(100)

	r := mustExec(t, db, `retrieve (h.id, h.seq, i.id, i.seq, i.amount)
		valid from start of (h overlap i) to end of (h extend i)
		where h.id = 500 and i.amount = 73700
		when h overlap i
		as of "now"`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %v", r.Rows)
	}
	row := r.Rows[0]
	if row[0].I != 500 || row[4].I != 73700 {
		t.Fatalf("row: %v", row)
	}
	// valid from = start of intersection = the later start (epoch+100);
	// valid to = end of extend = forever.
	if temporal.Time(row[5].I) != epoch+100 {
		t.Errorf("valid_from = %v, want %v", temporal.Time(row[5].I), epoch+100)
	}
	if !temporal.Time(row[6].I).IsForever() {
		t.Errorf("valid_to = %v, want forever", temporal.Time(row[6].I))
	}
}

// --- retrieve into, unique, expressions ---

func TestRetrieveInto(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create src (a = i4, b = i4)`)
	mustExec(t, db, `range of s is src`)
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf(`append to src (a = %d, b = %d)`, i, i*10))
	}
	r := mustExec(t, db, `retrieve into dst (x = s.a, y = s.b * 2) where s.a > 2`)
	if r.Affected != 3 {
		t.Fatalf("affected %d", r.Affected)
	}
	mustExec(t, db, `range of d is dst`)
	r = mustExec(t, db, `retrieve (d.x, d.y) where d.x = 4`)
	if len(r.Rows) != 1 || r.Rows[0][1].I != 80 {
		t.Fatalf("dst rows: %v", r.Rows)
	}
}

func TestRetrieveUnique(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (a = i4)`)
	mustExec(t, db, `range of x is r`)
	mustExec(t, db, `append to r (a = 1)
	                 append to r (a = 1)
	                 append to r (a = 2)`)
	r := mustExec(t, db, `retrieve unique (x.a)`)
	if len(r.Rows) != 2 {
		t.Fatalf("unique rows: %v", r.Rows)
	}
}

// TestRetrieveUniqueKeepsDistinctRows: two rows whose strings, run
// together, read the same are still two rows — for unique and for
// grouping alike.
func TestRetrieveUniqueKeepsDistinctRows(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create s (a = c12, b = c12)
		range of r is s
		append to s (a = "x|0|0;5|y", b = "z")
		append to s (a = "x", b = "y|0|0;5|z")`)
	for _, q := range []string{
		`retrieve (r.a, r.b)`,
		`retrieve unique (r.a, r.b)`,
		`retrieve (r.a, r.b, n = count(r.a by r.a, r.b))`,
	} {
		if res := mustExec(t, db, q); len(res.Rows) != 2 {
			t.Errorf("%s: %v, want two rows", q, res.Rows)
		}
	}
}

// TestArithmetic pins Quel's numeric promotion — integer op integer stays
// an integer, anything involving a float is a float — and its errors.
func TestArithmetic(t *testing.T) {
	db := newDB(t)
	for _, c := range []struct {
		expr string
		want tuple.Value
		err  string
	}{
		{expr: "7 + 2", want: tuple.IntValue(9)},
		{expr: "7 - 2", want: tuple.IntValue(5)},
		{expr: "7 * 2", want: tuple.IntValue(14)},
		{expr: "-7 / 2", want: tuple.IntValue(-3)},
		{expr: "7.5 + 2", want: tuple.FloatValue(9.5)},
		{expr: "7.5 - 2", want: tuple.FloatValue(5.5)},
		{expr: "7.5 * 2", want: tuple.FloatValue(15)},
		{expr: "7 / 2.0", want: tuple.FloatValue(3.5)},
		{expr: "-(2.5)", want: tuple.FloatValue(-2.5)},
		{expr: "7 / 0", err: "core: division by zero"},
		{expr: "7.5 / 0", err: "core: division by zero"},
		{expr: `"ab" + 1`, err: "core: arithmetic on strings"},
		{expr: `-"ab"`, err: "core: cannot negate a string"},
	} {
		res, err := db.Exec("retrieve (v = " + c.expr + ")")
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want %q", c.expr, err, c.err)
			}
		case err != nil:
			t.Errorf("%s: %v", c.expr, err)
		case len(res.Rows) != 1 || res.Rows[0][0] != c.want:
			t.Errorf("%s = %v, want %v", c.expr, res.Rows, c.want)
		}
	}
}

func TestZeroVariableRetrieve(t *testing.T) {
	db := newDB(t)
	r := mustExec(t, db, `retrieve (x = 2 + 3 * 4)`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 14 {
		t.Fatalf("constant query: %v", r.Rows)
	}
}

func TestAppendFromQuery(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create a (x = i4)`)
	mustExec(t, db, `create b (x = i4)`)
	mustExec(t, db, `range of v is a`)
	mustExec(t, db, `append to a (x = 1)
	                 append to a (x = 2)`)
	r := mustExec(t, db, `append to b (x = v.x * 10) where v.x > 0`)
	if r.Affected != 2 {
		t.Fatalf("affected %d", r.Affected)
	}
	mustExec(t, db, `range of w is b`)
	rows := rowInts(t, mustExec(t, db, `retrieve (w.x) where w.x = 20`))
	if len(rows) != 1 {
		t.Fatalf("rows %v", rows)
	}
}

// --- joins ---

func TestJoinTupleSubstitution(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create e (id = i4, dept = i4)`)
	mustExec(t, db, `create d (id = i4, name = c10)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, fmt.Sprintf(`append to e (id = %d, dept = %d)`, i, i%3))
	}
	for i := 0; i < 3; i++ {
		mustExec(t, db, fmt.Sprintf(`append to d (id = %d, name = "dept%d")`, i, i))
	}
	mustExec(t, db, `modify d to hash on id where fillfactor = 100`)
	mustExec(t, db, `range of e is e
	                 range of d is d`)
	r := mustExec(t, db, `retrieve (e.id, d.name) where e.dept = d.id and e.id < 4`)
	if len(r.Rows) != 3 {
		t.Fatalf("join rows: %v", r.Rows)
	}
	for _, row := range r.Rows {
		want := fmt.Sprintf("dept%d", row[0].I%3)
		if row[1].S != want {
			t.Fatalf("join row %v, want name %s", row, want)
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create a (x = i4)
	                 create b (x = i4)
	                 create c (x = i4)`)
	mustExec(t, db, `append to a (x = 1)
	                 append to a (x = 2)
	                 append to b (x = 2)
	                 append to c (x = 2)`)
	mustExec(t, db, `range of a is a
	                 range of b is b
	                 range of c is c`)
	r := mustExec(t, db, `retrieve (a.x) where a.x = b.x and b.x = c.x`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("3-way join: %v", r.Rows)
	}
	// Selective variables are detached into temporaries first.
	for i := 3; i <= 40; i++ {
		mustExec(t, db, fmt.Sprintf(`append to a (x = %d)`, i))
		mustExec(t, db, fmt.Sprintf(`append to b (x = %d)`, i))
		mustExec(t, db, fmt.Sprintf(`append to c (x = %d)`, i))
	}
	r = mustExec(t, db, `retrieve (a.x, b.x, c.x)
		where a.x = b.x and b.x = c.x and a.x > 35 and c.x < 38`)
	if len(r.Rows) != 2 {
		t.Fatalf("selective 3-way join: %v", r.Rows)
	}
}

func TestRetroactiveChange(t *testing.T) {
	// The paper's introduction motivates temporal databases with
	// "retroactive or postactive changes": a correction recorded today can
	// carry a validity that begins in the past.
	db := newDB(t)
	mustExec(t, db, `create persistent interval rate (code = i4, pct = i4)
	                 range of r is rate`)
	mustExec(t, db, `append to rate (code = 1, pct = 5) valid from "1/1/80" to "forever"`)
	db.Clock().Set(temporal.Date(1980, 6, 1, 0, 0, 0))
	// In June we learn the rate was actually 7 since March: a retroactive
	// replace, dated with the valid clause.
	mustExec(t, db, `replace r (pct = 7) where r.code = 1 valid from "3/1/80" to "forever"`)
	db.Clock().Advance(100)

	// As understood now, the rate in April was 7...
	res := mustExec(t, db, `retrieve (r.pct) when r overlap "4/1/80"`)
	vals := map[int64]bool{}
	for _, row := range res.Rows {
		vals[row[0].I] = true
	}
	if !vals[7] {
		t.Fatalf("retroactive value missing for April: %v", res.Rows)
	}
	// ... but as the database stood in May (before the correction), it
	// still said 5 — the rollback dimension keeps the mistake auditable.
	res = mustExec(t, db, `retrieve (r.pct) as of "5/1/80" when r overlap "4/1/80"`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
		t.Fatalf("pre-correction April rate: %v", res.Rows)
	}
}

// --- modify / storage structures through the engine ---

func TestModifyPreservesContents(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4, v = i4)`)
	mustExec(t, db, `range of x is r`)
	for i := 1; i <= 100; i++ {
		mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d)`, i, i*i))
	}
	for _, m := range []string{
		`modify r to hash on id where fillfactor = 50`,
		`modify r to isam on id where fillfactor = 100`,
		`modify r to heap`,
	} {
		mustExec(t, db, m)
		r := mustExec(t, db, `retrieve (x.v) where x.id = 37`)
		if len(r.Rows) != 1 || r.Rows[0][0].I != 37*37 {
			t.Fatalf("after %q: %v", m, r.Rows)
		}
		r = mustExec(t, db, `retrieve (x.id)`)
		if len(r.Rows) != 100 {
			t.Fatalf("after %q: %d rows", m, len(r.Rows))
		}
	}
}

func TestProbeCostThroughEngine(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, amount = i4, seq = i4, string = c96)`)
	mustExec(t, db, `range of x is r`)
	rows := make([][]tuple.Value, 1024)
	for i := range rows {
		rows[i] = []tuple.Value{
			tuple.IntValue(int64(i + 1)), tuple.IntValue(int64(i * 100)),
			tuple.IntValue(0), tuple.StrValue("s"),
		}
	}
	if _, err := db.Load("r", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `modify r to hash on id where fillfactor = 100`)

	db.InvalidateBuffers()
	r := mustExec(t, db, `retrieve (x.seq) where x.id = 500`)
	if r.Input != 1 {
		t.Errorf("hashed access cost %d pages, want 1 (Q01 at UC 0)", r.Input)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %d", len(r.Rows))
	}

	db.InvalidateBuffers()
	r = mustExec(t, db, `retrieve (x.seq) where x.amount = 200 when x overlap "now"`)
	if r.Input != 129 {
		t.Errorf("sequential scan cost %d pages, want 129 (Q07 at UC 0)", r.Input)
	}
}

// --- copy ---

func TestCopyRoundTrip(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, name = c8)`)
	mustExec(t, db, `range of x is r`)
	mustExec(t, db, `append to r (id = 1, name = "one")`)
	db.Clock().Advance(10)
	mustExec(t, db, `replace x (name = "uno") where x.id = 1`)
	db.Clock().Advance(10)

	dir := t.TempDir()
	file := dir + "/dump.tsv"
	r := mustExec(t, db, fmt.Sprintf(`copy r () into %q`, file))
	if r.Affected != 3 {
		t.Fatalf("dumped %d versions, want 3", r.Affected)
	}

	db2 := MustOpen(Options{Now: db.Clock().Now()})
	mustExec(t, db2, `create persistent interval r (id = i4, name = c8)`)
	mustExec(t, db2, `range of x is r`)
	r = mustExec(t, db2, fmt.Sprintf(`copy r () from %q`, file))
	if r.Affected != 3 {
		t.Fatalf("loaded %d versions", r.Affected)
	}
	// History survived the round trip.
	got := mustExec(t, db2, `retrieve (x.name) when x overlap "now"`)
	if len(got.Rows) != 1 || got.Rows[0][0].S != "uno" {
		t.Fatalf("current after reload: %v", got.Rows)
	}
	past := mustExec(t, db2, fmt.Sprintf(`retrieve (x.name) when x overlap %q`, temporal.Format(epoch+5, temporal.Second)))
	if len(past.Rows) != 1 || past.Rows[0][0].S != "one" {
		t.Fatalf("history after reload: %v", past.Rows)
	}
}

// --- destroy ---

func TestDestroy(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (a = i4)`)
	mustExec(t, db, `range of x is r`)
	mustExec(t, db, `destroy r`)
	if _, err := db.Exec(`retrieve (x.a)`); err == nil {
		t.Error("query after destroy succeeded")
	}
	// Recreate under the same name.
	mustExec(t, db, `create r (a = i4)`)
}
