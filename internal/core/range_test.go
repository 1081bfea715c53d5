package core

import (
	"fmt"
	"math"
	"testing"

	"tdbms/internal/tquel"
)

// buildRangeRel loads 1024 temporal tuples under the given access method.
func buildRangeRel(t *testing.T, method string) *Database {
	t.Helper()
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, v = i4, pad = c96)`)
	rows := make([][]any, 0)
	_ = rows
	for i := 1; i <= 1024; i++ {
		mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d, pad = "x")`, i, i*3))
	}
	mod := `modify r to ` + method + ` on id`
	if method == "isam" {
		mod += ` where fillfactor = 100`
	}
	mustExec(t, db, mod+`
		range of x is r`)
	return db
}

func TestRangeProbeResults(t *testing.T) {
	for _, method := range []string{"isam", "btree", "hash", "heap"} {
		db := newDB(t)
		mustExec(t, db, `create persistent interval r (id = i4, v = i4)`)
		for i := 1; i <= 200; i++ {
			mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d)`, i, i))
		}
		if method != "heap" {
			mustExec(t, db, `modify r to `+method+` on id`)
		}
		mustExec(t, db, `range of x is r`)
		r := mustExec(t, db, `retrieve (x.id) where x.id > 50 and x.id <= 60 when x overlap "now"`)
		if len(r.Rows) != 10 {
			t.Errorf("%s: range rows = %d, want 10", method, len(r.Rows))
		}
		// Mixed-direction constant placement.
		r = mustExec(t, db, `retrieve (x.id) where 190 <= x.id and x.id < 195`)
		if len(r.Rows) != 5 {
			t.Errorf("%s: flipped range rows = %d, want 5", method, len(r.Rows))
		}
		// Empty range.
		r = mustExec(t, db, `retrieve (x.id) where x.id > 60 and x.id < 61`)
		if len(r.Rows) != 0 {
			t.Errorf("%s: empty range rows = %d", method, len(r.Rows))
		}
	}
}

func TestRangeProbeCostISAM(t *testing.T) {
	// An ISAM range probe reads the directory plus the few covering data
	// pages, not the whole file (1024 temporal tuples = 128 data pages).
	db := buildRangeRel(t, "isam")
	db.InvalidateBuffers()
	r := mustExec(t, db, `retrieve (x.v) where x.id >= 500 and x.id < 516 when x overlap "now"`)
	if len(r.Rows) != 16 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	// 16 tuples at 8/page span 2-3 data pages, plus 1 directory page.
	if r.Input > 5 {
		t.Errorf("ISAM range probe read %d pages, want <= 5", r.Input)
	}
}

func TestRangeProbeCostBtree(t *testing.T) {
	db := buildRangeRel(t, "btree")
	db.InvalidateBuffers()
	r := mustExec(t, db, `retrieve (x.v) where x.id >= 500 and x.id < 516 when x overlap "now"`)
	if len(r.Rows) != 16 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	if r.Input > 8 {
		t.Errorf("btree range probe read %d pages, want <= 8", r.Input)
	}
}

func TestHalfBoundedRange(t *testing.T) {
	db := buildRangeRel(t, "isam")
	r := mustExec(t, db, `retrieve (x.id) where x.id > 1020 when x overlap "now"`)
	if len(r.Rows) != 4 {
		t.Fatalf("upper tail rows: %d", len(r.Rows))
	}
	db.InvalidateBuffers()
	r = mustExec(t, db, `retrieve (x.id) where x.id <= 4 when x overlap "now"`)
	if len(r.Rows) != 4 {
		t.Fatalf("lower tail rows: %d", len(r.Rows))
	}
	if r.Input > 3 {
		t.Errorf("lower-tail range read %d pages", r.Input)
	}
}

func TestRangeWithVersions(t *testing.T) {
	// Range probes see all versions; the temporal filter picks the state.
	db := buildRangeRel(t, "isam")
	db.Clock().Advance(100)
	mustExec(t, db, `replace x (v = 0) where x.id >= 500 and x.id < 510`)
	db.Clock().Advance(100)
	r := mustExec(t, db, `retrieve (x.v) where x.id >= 500 and x.id < 510 when x overlap "now"`)
	if len(r.Rows) != 10 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[0].I != 0 {
			t.Fatalf("stale version surfaced: %v", row)
		}
	}
	// Past state through the same range path (before the epoch+100 replace).
	r = mustExec(t, db, `retrieve (x.v) where x.id >= 500 and x.id < 510 when x overlap "00:00:30 1/1/80"`)
	for _, row := range r.Rows {
		if row[0].I == 0 {
			t.Fatalf("new version leaked into the past: %v", row)
		}
	}
	if len(r.Rows) != 10 {
		t.Fatalf("past rows: %d", len(r.Rows))
	}
}

// TestKeyBoundsAtTheLimits pins the key bounds of `x.id > k` and
// `x.id < k` at the int64 limits, where k+1 and k-1 do not exist: the
// range probe reads what its in-range neighbour reads, not the whole
// directory as a wrapped bound would, and the answer is empty.
func TestKeyBoundsAtTheLimits(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, v = i4, pad = c96)`)
	for i := 1; i <= 400; i++ {
		mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d, pad = "x")`, i, i))
	}
	mustExec(t, db, `modify r to isam on id where fillfactor = 100
		range of x is r`)
	probe := func(op string, k int64) *Result {
		t.Helper()
		stmt, err := tquel.Parse(`retrieve (x.v) where x.id ` + op + ` 7`)
		if err != nil {
			t.Fatal(err)
		}
		stmt.(*tquel.RetrieveStmt).Where.(*tquel.BinaryExpr).R.(*tquel.ConstExpr).Val.I = k
		db.InvalidateBuffers()
		res, err := db.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("x.id %s %d: %v", op, k, err)
		}
		return res
	}
	for _, c := range []struct {
		op              string
		limit, neighbor int64
	}{{">", math.MaxInt64, math.MaxInt64 - 1}, {"<", math.MinInt64, math.MinInt64 + 1}} {
		at, near := probe(c.op, c.limit), probe(c.op, c.neighbor)
		if len(at.Rows) != 0 || len(near.Rows) != 0 {
			t.Errorf("x.id %s %d: %d rows; %s %d: %d rows, want none", c.op, c.limit, len(at.Rows),
				c.op, c.neighbor, len(near.Rows))
		}
		if at.Input != near.Input {
			t.Errorf("x.id %s %d read %d pages, x.id %s %d read %d", c.op, c.limit, at.Input,
				c.op, c.neighbor, near.Input)
		}
	}
}
