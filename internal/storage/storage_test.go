package storage

import (
	"path/filepath"
	"testing"

	"tdbms/internal/page"
)

// exercise runs the same conformance checks against any File implementation.
func exercise(t *testing.T, f File) {
	t.Helper()
	if f.NumPages() != 0 {
		t.Fatalf("fresh file has %d pages", f.NumPages())
	}
	var p page.Page
	if err := f.ReadPage(0, &p); err == nil {
		t.Error("ReadPage(0) on empty file succeeded")
	}
	if err := f.WritePage(0, &p); err == nil {
		t.Error("WritePage(0) on empty file succeeded")
	}

	id0, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Fatalf("allocated IDs %d,%d, want 0,1", id0, id1)
	}
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", f.NumPages())
	}

	p.Format(100, page.KindData)
	p.SetNext(7)
	if err := f.WritePage(id1, &p); err != nil {
		t.Fatal(err)
	}
	var q page.Page
	if err := f.ReadPage(id1, &q); err != nil {
		t.Fatal(err)
	}
	if q.Next() != 7 || q.Width() != 100 {
		t.Errorf("round trip lost data: next=%d width=%d", q.Next(), q.Width())
	}
	// Page 0 must still be zeroed.
	if err := f.ReadPage(id0, &q); err != nil {
		t.Fatal(err)
	}
	if q.Width() != 0 {
		t.Errorf("page 0 width = %d, want 0", q.Width())
	}

	// An overwrite is visible to the very next read, single or batched.
	p.SetNext(9)
	if err := f.WritePage(id1, &p); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(id1, &q); err != nil {
		t.Fatal(err)
	}
	if q.Next() != 9 {
		t.Errorf("ReadPage after overwrite: next=%d, want 9", q.Next())
	}
	both := make([]page.Page, 2)
	if err := f.ReadPages(id0, both); err != nil {
		t.Fatal(err)
	}
	if both[1].Next() != 9 || both[0].Width() != 0 {
		t.Errorf("ReadPages after overwrite: next=%d width0=%d, want 9 and 0", both[1].Next(), both[0].Width())
	}

	if err := f.ReadPage(-1, &q); err == nil {
		t.Error("ReadPage(-1) succeeded")
	}
	if err := f.ReadPage(2, &q); err == nil {
		t.Error("ReadPage past end succeeded")
	}

	// Shrink gives back the last pages and keeps the others; a page
	// allocated again reads back zeroed.
	if err := f.Shrink(3); err == nil {
		t.Error("Shrink past the end succeeded")
	}
	if err := f.Shrink(1); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("NumPages after Shrink(1) = %d", f.NumPages())
	}
	if err := f.ReadPage(id1, &q); err == nil {
		t.Error("ReadPage of a page given back succeeded")
	}
	if id, err := f.Allocate(); err != nil || id != id1 {
		t.Fatalf("Allocate after Shrink = %d, %v; want %d", id, err, id1)
	}
	if err := f.ReadPage(id1, &q); err != nil {
		t.Fatal(err)
	}
	if q != (page.Page{}) {
		t.Error("page allocated after Shrink is not zeroed")
	}

	if err := f.Shrink(0); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 0 {
		t.Errorf("NumPages after Truncate = %d", f.NumPages())
	}
	if err := f.ReadPage(0, &q); err == nil {
		t.Error("ReadPage(0) after Truncate succeeded")
	}
	// A page allocated after Truncate reads back zeroed, not as the page
	// that held its ID before.
	if id, err := f.Allocate(); err != nil || id != 0 {
		t.Fatalf("Allocate after Truncate = %d, %v; want 0", id, err)
	}
	if err := f.ReadPage(0, &q); err != nil {
		t.Fatal(err)
	}
	if q != (page.Page{}) {
		t.Error("page allocated after Truncate is not zeroed")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMem(t *testing.T) {
	exercise(t, NewMem())
}

func TestDisk(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "rel.tdb"))
	if err != nil {
		t.Fatal(err)
	}
	exercise(t, d)
}

func TestDiskReopenPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.tdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p page.Page
	p.Format(42, page.KindData)
	if err := d.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d, want 1", d2.NumPages())
	}
	var q page.Page
	if err := d2.ReadPage(0, &q); err != nil {
		t.Fatal(err)
	}
	if q.Width() != 42 {
		t.Errorf("reopened width = %d, want 42", q.Width())
	}
}

func TestDiskRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.tdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Allocate(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Corrupt the size.
	if err := appendByte(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Error("OpenDisk accepted a file whose size is not a page multiple")
	}
}
