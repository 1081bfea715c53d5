package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRelationFileCutUnderneath shortens a relation's data file from
// outside the engine between two statements of a logged database. Disk
// reads copy out of a mapping of that file, so the pages that are gone
// fault instead of failing a read syscall: the next retrieve and replace
// must each return an error naming the file — no panic, no row — and the
// database must still close.
func TestRelationFileCutUnderneath(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Now: epoch, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `create persistent interval emp (id = i4, v = i4)
	                 range of e is emp
	                 append to emp (id = 1, v = 0)`)
	for n := 1; n < 256; n *= 2 {
		mustExec(t, db, fmt.Sprintf(`append to emp (id = e.id + %d, v = 0)`, n))
	}
	// Every dirty frame reaches the file and no frame stays resident, so
	// the next statement must read the file.
	if err := db.InvalidateBuffers(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "emp.tdb"), 0); err != nil {
		t.Fatal(err)
	}

	for _, stmt := range []string{
		`retrieve (e.id, e.v)`,
		`replace e (v = 1) where e.id = 5`,
	} {
		res, err := db.Exec(stmt)
		if err == nil {
			t.Fatalf("%s on a cut file succeeded", stmt)
		}
		t.Logf("%s: %v", stmt, err)
		if !strings.Contains(err.Error(), "of emp.tdb") {
			t.Errorf("%s: error %q does not name the file", stmt, err)
		}
		if res != nil && len(res.Rows) > 0 {
			t.Errorf("%s returned %d rows beside its error", stmt, len(res.Rows))
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close after the faults: %v", err)
	}
}
