package storage_test

import (
	"path/filepath"
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// fillFile writes n pages whose first byte is the page index, so a batch
// read can be checked page by page.
func fillFile(t *testing.T, f storage.File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var p page.Page
		p[0] = byte(i + 1)
		if err := f.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
	}
}

func testReadPages(t *testing.T, f storage.File) {
	fillFile(t, f, 6)

	ps := make([]page.Page, 4)
	if err := f.ReadPages(1, ps); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got, want := ps[i][0], byte(i+2); got != want {
			t.Errorf("batch page %d: first byte = %d, want %d", i, got, want)
		}
	}

	// A batch sees a page written just before it.
	var p page.Page
	p[0] = 42
	if err := f.WritePage(3, &p); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPages(2, ps[:2]); err != nil {
		t.Fatal(err)
	}
	if ps[0][0] != 3 || ps[1][0] != 42 {
		t.Errorf("batch after write: first bytes %d,%d, want 3,42", ps[0][0], ps[1][0])
	}

	// The empty batch is a no-op even out of range.
	if err := f.ReadPages(99, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}

	// A run overflowing the file end must fail, not truncate.
	if err := f.ReadPages(4, make([]page.Page, 3)); err == nil {
		t.Error("overflowing batch succeeded")
	}
	if err := f.ReadPages(-1, make([]page.Page, 2)); err == nil {
		t.Error("negative start succeeded")
	}

	// A full-file batch matches single-page reads exactly.
	all := make([]page.Page, 6)
	if err := f.ReadPages(0, all); err != nil {
		t.Fatal(err)
	}
	for i := range all {
		var single page.Page
		if err := f.ReadPage(page.ID(i), &single); err != nil {
			t.Fatal(err)
		}
		if all[i] != single {
			t.Errorf("page %d: batch and single reads disagree", i)
		}
	}
}

func TestMemReadPages(t *testing.T) {
	testReadPages(t, storage.NewMem())
}

func TestDiskReadPages(t *testing.T) {
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "readpages.tdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	testReadPages(t, d)
}
