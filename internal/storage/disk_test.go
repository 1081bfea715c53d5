//go:build unix

package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tdbms/internal/page"
)

// stamp marks a page with its own ID, so a read can be checked against
// the page it was meant to return.
func stamp(id page.ID) *page.Page {
	var p page.Page
	binary.LittleEndian.PutUint32(p[:], uint32(id)+1)
	binary.LittleEndian.PutUint32(p[page.Size-4:], uint32(id)+1)
	return &p
}

func stamped(p *page.Page) page.ID {
	return page.ID(binary.LittleEndian.Uint32(p[:])) - 1
}

func openDisk(t *testing.T, name string) (*Disk, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	return d, path
}

// grow allocates and stamps pages until the file has n.
func grow(t *testing.T, d *Disk, n int) {
	t.Helper()
	for d.NumPages() < n {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, stamp(id)); err != nil {
			t.Fatal(err)
		}
	}
}

// mappedPages reports how many pages the mapping currently covers.
func mappedPages(d *Disk) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m.b) / page.Size
}

// TestDiskGrowsWhileReading grows a file through three remaps while two
// readers check every page the writer has finished. Run it under -race:
// a remap must wait for in-flight copies, and a copy must never see the
// old mapping after it is gone.
func TestDiskGrowsWhileReading(t *testing.T) {
	d, _ := openDisk(t, "grow.tdb")
	defer d.Close()
	target := mapFloor*4 + 1 // 256 → 512 → 1024 → 2048 pages

	var done atomic.Int32 // pages 0..done-1 are written
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var p page.Page
			run := make([]page.Page, 5)
			for i := r; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				n := int(done.Load())
				if n == 0 {
					continue
				}
				id := page.ID(i % n)
				if err := d.ReadPage(id, &p); err != nil {
					errs <- err
					return
				}
				if got := stamped(&p); got != id {
					errs <- fmt.Errorf("read page %d returned page %d", id, got)
					return
				}
				if n < len(run) {
					continue
				}
				start := page.ID(i % (n - len(run) + 1))
				if err := d.ReadPages(start, run); err != nil {
					errs <- err
					return
				}
				for k := range run {
					if got := stamped(&run[k]); got != start+page.ID(k) {
						errs <- fmt.Errorf("run page %d returned page %d", start+page.ID(k), got)
						return
					}
				}
			}
		}(r)
	}

	sizes := map[int]bool{}
	for d.NumPages() < target {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, stamp(id)); err != nil {
			t.Fatal(err)
		}
		done.Store(int32(id) + 1)
		sizes[mappedPages(d)] = true
	}
	close(stop)
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	// Three remaps, each doubling: growth costs a logarithmic number.
	want := map[int]bool{mapFloor: true, 2 * mapFloor: true, 4 * mapFloor: true, 8 * mapFloor: true}
	if len(sizes) != len(want) {
		t.Errorf("mapping took sizes %v while growing to %d pages, want %v", sizes, target, want)
	}
	for n := range sizes {
		if !want[n] {
			t.Errorf("mapping took size %d pages, want one of %v", n, want)
		}
	}
}

// TestDiskReadPagesAcrossRemap reads runs that straddle the end of the
// first mapping, before and after the remap that covers them.
func TestDiskReadPagesAcrossRemap(t *testing.T) {
	d, _ := openDisk(t, "straddle.tdb")
	defer d.Close()
	grow(t, d, mapFloor)
	before := make([]page.Page, 6)
	if err := d.ReadPages(mapFloor-6, before); err != nil {
		t.Fatal(err)
	}
	grow(t, d, mapFloor+6)
	if mappedPages(d) <= mapFloor {
		t.Fatalf("mapping still %d pages after growing past it", mappedPages(d))
	}
	after := make([]page.Page, 6)
	if err := d.ReadPages(mapFloor-6, after); err != nil {
		t.Fatal(err)
	}
	straddle := make([]page.Page, 12)
	if err := d.ReadPages(mapFloor-6, straddle); err != nil {
		t.Fatal(err)
	}
	for i := range straddle {
		id := page.ID(mapFloor - 6 + i)
		var single page.Page
		if err := d.ReadPage(id, &single); err != nil {
			t.Fatal(err)
		}
		if straddle[i] != single || stamped(&single) != id {
			t.Errorf("page %d: run and single reads disagree (stamps %d, %d)", id, stamped(&straddle[i]), stamped(&single))
		}
		if i < len(before) && (before[i] != single || after[i] != single) {
			t.Errorf("page %d changed across the remap", id)
		}
	}
}

// TestDiskReopenMapsWholeFile reopens a file larger than the floor: every
// page must be readable through the mapping taken at open.
func TestDiskReopenMapsWholeFile(t *testing.T) {
	d, path := openDisk(t, "reopen.tdb")
	grow(t, d, mapFloor*2+3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	all := make([]page.Page, d.NumPages())
	if err := d.ReadPages(0, all); err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if got := stamped(&all[i]); got != page.ID(i) {
			t.Fatalf("reopened page %d reads as page %d", i, got)
		}
	}
}

// TestDiskFileCutFromOutside shortens the file behind the store's back.
// The mapped copy faults; the read must fail with an error naming the
// file and page, and the process must survive to close the store.
func TestDiskFileCutFromOutside(t *testing.T) {
	d, path := openDisk(t, "cut.tdb")
	grow(t, d, 8)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	var p page.Page
	err := d.ReadPage(5, &p)
	if err == nil {
		t.Fatal("ReadPage of a page cut from the file succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "read page 5 of cut.tdb") {
		t.Errorf("error %q does not name the file and page", msg)
	}
	if err := d.ReadPages(2, make([]page.Page, 3)); err == nil ||
		!strings.Contains(err.Error(), "read page 2 of cut.tdb") {
		t.Errorf("ReadPages of cut pages: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCloseReleasesMapping closes twice: the second Close reports the
// closed file and does not unmap again, and a read after Close is an error,
// not a crash.
func TestDiskCloseReleasesMapping(t *testing.T) {
	d, _ := openDisk(t, "close.tdb")
	grow(t, d, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if mappedPages(d) != 0 {
		t.Errorf("mapping of %d pages survives Close", mappedPages(d))
	}
	var p page.Page
	if err := d.ReadPage(1, &p); !errors.Is(err, os.ErrClosed) {
		t.Errorf("ReadPage after Close: %v, want a closed-file error", err)
	}
	if err := d.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}
