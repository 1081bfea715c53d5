package tdbms

import (
	"reflect"
	"testing"
	"time"
)

func jan1980() time.Time { return time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC) }

func TestPublicAPIQuickstart(t *testing.T) {
	db := MustOpen(Options{Now: jan1980()})
	steps := []string{
		`create persistent interval emp (name = c20, salary = i4)`,
		`append to emp (name = "ann", salary = 100)`,
		`range of e is emp`,
	}
	for _, s := range steps {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	db.AdvanceClock(time.Hour)
	if _, err := db.Exec(`replace e (salary = 120) where e.name = "ann"`); err != nil {
		t.Fatal(err)
	}
	db.AdvanceClock(time.Hour)

	res, err := db.Exec(`retrieve (e.salary) when e overlap "now"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 120 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// The result carries validity columns.
	if len(res.Columns) != 3 {
		t.Fatalf("columns: %v", res.Columns)
	}
	vf, forever := res.Rows[0][1].Time()
	if forever || !vf.Equal(jan1980().Add(time.Hour)) {
		t.Errorf("valid_from = %v (forever=%v)", vf, forever)
	}
	if _, forever := res.Rows[0][2].Time(); !forever {
		t.Error("valid_to should be forever")
	}

	// Time travel via valid time.
	res, err = db.Exec(`retrieve (e.salary) when e overlap "00:30 1/1/80"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("past rows: %v", res.Rows)
	}
}

func TestPublicAPILoadAndStats(t *testing.T) {
	db := MustOpen(Options{Now: jan1980()})
	if _, err := db.Exec(`create persistent r (id = i4, v = c4)`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 100)
	for i := range rows {
		rows[i] = []any{i + 1, "x"}
	}
	n, err := db.Load("r", rows)
	if err != nil || n != 100 {
		t.Fatalf("Load: %d, %v", n, err)
	}
	if _, err := db.Exec(`modify r to hash on id where fillfactor = 100`); err != nil {
		t.Fatal(err)
	}
	pages, err := db.RelationPages("r")
	if err != nil || pages == 0 {
		t.Fatalf("RelationPages: %d, %v", pages, err)
	}
	db.ResetStats()
	db.InvalidateBuffers()
	if _, err := db.Exec(`range of x is r retrieve (x.v) where x.id = 42`); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Reads; got != 1 {
		t.Errorf("hashed probe reads = %d, want 1", got)
	}
	got := db.Relations()
	if len(got) != 1 || got[0] != "r" {
		t.Errorf("Relations = %v", got)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := MustOpen(Options{})
	if _, err := db.Exec(`retrieve (x.a)`); err == nil {
		t.Error("bad query succeeded")
	}
	if _, err := db.Load("nosuch", [][]any{{1}}); err == nil {
		t.Error("Load into missing relation succeeded")
	}
	if _, err := db.Exec(`create r (a = i4)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("r", [][]any{{struct{}{}}}); err == nil {
		t.Error("Load with unsupported type succeeded")
	}
	if err := db.EnableTwoLevelStore("r", false); err == nil {
		t.Error("two-level store on a static relation succeeded")
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Now: jan1980()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`create persistent interval emp (name = c12, salary = i4)
	                      range of e is emp
	                      append to emp (name = "ann", salary = 100)`); err != nil {
		t.Fatal(err)
	}
	db.AdvanceClock(time.Hour)
	if _, err := db.Exec(`replace e (salary = 130) where e.name = "ann"`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec(`range of e is emp
	                      retrieve (e.salary) when e overlap "now"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 130 {
		t.Fatalf("after reopen: %v", res.Rows)
	}
	res, err = db2.Exec(`retrieve (e.salary) when e overlap "00:30 1/1/80"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("history after reopen: %v", res.Rows)
	}
}

func TestAggregatesAndSortViaAPI(t *testing.T) {
	db := MustOpen(Options{Now: jan1980()})
	if _, err := db.Exec(`create r (a = i4)
	                      range of x is r
	                      append to r (a = 3)
	                      append to r (a = 1)
	                      append to r (a = 2)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`retrieve (n = count(x.a), s = sum(x.a))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Int() != 6 {
		t.Fatalf("aggregates: %v", res.Rows[0])
	}
	res, err = db.Exec(`retrieve (x.a) sort by a desc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 || res.Rows[2][0].Int() != 1 {
		t.Fatalf("sort: %v", res.Rows)
	}
}

func TestValueKinds(t *testing.T) {
	db := MustOpen(Options{Now: jan1980()})
	if _, err := db.Exec(`create r (i = i4, f = f8, s = c8)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`append to r (i = 7, f = 2.5, s = "hey")`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`range of x is r retrieve (x.i, x.f, x.s)`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Kind() != Int || row[0].Int() != 7 {
		t.Errorf("int: %v", row[0])
	}
	if row[1].Kind() != Float || row[1].Float() != 2.5 {
		t.Errorf("float: %v", row[1])
	}
	if row[2].Kind() != String || row[2].Str() != "hey" {
		t.Errorf("string: %v", row[2])
	}
	if row[0].Float() != 7 || row[1].Int() != 2 {
		t.Errorf("conversions: %v %v", row[0].Float(), row[1].Int())
	}
}

// TestOutOfRangeValuesRejected: a value its attribute cannot store, or a
// time constant outside the 32-bit range a version stores, fails its
// statement and leaves the relation as it was — it is not stored wrapped.
func TestOutOfRangeValuesRejected(t *testing.T) {
	db := MustOpen(Options{Now: jan1980()})
	for _, s := range []string{
		`create persistent interval r (id = i4, n = i2)`,
		`append to r (id = 1, n = 1)`,
		`range of x is r`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	state := func() ([]string, int) {
		t.Helper()
		res, err := db.Exec(`retrieve (x.id, x.n, x.valid_from, x.valid_to) as of "1/1/2035"`)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res.Rows {
			var row string
			for _, v := range r {
				row += v.String() + " "
			}
			rows = append(rows, row)
		}
		pages, err := db.RelationPages("r")
		if err != nil {
			t.Fatal(err)
		}
		return rows, pages
	}
	rows, pages := state()
	if len(rows) != 1 {
		t.Fatalf("as of 2035 sees %d rows, want the current one: %v", len(rows), rows)
	}
	for _, s := range []string{
		`append to r (id = 3000000000, n = 2)`,
		`append to r (id = 2, n = 70000)`,
		`append to r (id = -2147483649, n = 2)`,
		`append to r (id = 2, n = -32769)`,
		`append to r (id = 2, n = 2) valid from "1/1/1980" to "1/1/2050"`,
		`replace x (n = x.n + 40000)`,
		`retrieve (x.id) as of "1/1/2050"`,
		`retrieve (x.id) where x.valid_from < "1/1/1900"`,
	} {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("%s: accepted a value its attribute cannot hold", s)
		}
		if r, p := state(); !reflect.DeepEqual(r, rows) || p != pages {
			t.Fatalf("%s: left %v on %d pages, want %v on %d", s, r, p, rows, pages)
		}
	}
	// The extremes of each width still store exactly.
	for _, s := range []string{
		`append to r (id = 2147483647, n = 32767)`,
		`append to r (id = -2147483648, n = -32768)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := db.Exec(`retrieve (x.id, x.n) where x.id != 1`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range res.Rows {
		got[r[0].Int()] = r[1].Int()
	}
	want := map[int64]int64{2147483647: 32767, -2147483648: -32768}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extremes stored as %v, want %v", got, want)
	}
}
