package storage

import (
	"fmt"
	"sync"
	"testing"

	"tdbms/internal/page"
)

// growMem allocates pages until m holds n.
func growMem(t *testing.T, m *Mem, n int) {
	t.Helper()
	for m.NumPages() < n {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocateTilesPages pins the chunk layout Allocate builds and locate
// reads: the pages fill chunks in order, each chunk as large as the file
// before it, up to memChunk pages — 1, 1, 2, …, 32 pages for the first
// memChunk, then memChunk pages each — and every page has its own index
// inside its chunk.
func TestLocateTilesPages(t *testing.T) {
	var lens []int
	for id := 0; id < 10*memChunk; id++ {
		c, i := locate(id)
		if c == len(lens) && i == 0 {
			lens = append(lens, 0)
		}
		if c != len(lens)-1 || i != lens[c] {
			t.Fatalf("page %d at (%d,%d), want (%d,%d)", id, c, i, len(lens)-1, lens[len(lens)-1])
		}
		lens[c]++
	}
	want := []int{1, 1, 2, 4, 8, 16, 32}
	for len(want) < len(lens) {
		want = append(want, memChunk)
	}
	if fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
	m := NewMem()
	growMem(t, m, 10*memChunk)
	d := m.load()
	for c, ch := range d.chunks {
		if len(ch) != want[c] {
			t.Fatalf("Allocate made chunk %d of %d pages, want %d", c, len(ch), want[c])
		}
	}
}

// TestMemLendIsStable: the address Lend hands out for a page is the same
// after ten thousand more pages have been allocated, and it still holds
// what was written to the page.
func TestMemLendIsStable(t *testing.T) {
	m := NewMem()
	growMem(t, m, 100)
	before := make([]*page.Page, 100)
	for id := range before {
		var p page.Page
		p[0], p[page.Size-1] = byte(id), byte(id+1)
		if err := m.WritePage(page.ID(id), &p); err != nil {
			t.Fatal(err)
		}
		lent, err := m.Lend(page.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		before[id] = lent
	}
	growMem(t, m, 100+10000)
	for id, p := range before {
		after, err := m.Lend(page.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		if after != p {
			t.Fatalf("page %d moved from %p to %p", id, p, after)
		}
		if p[0] != byte(id) || p[page.Size-1] != byte(id+1) {
			t.Fatalf("page %d lost its content", id)
		}
	}
}

// TestMemAcrossChunkBoundary reads, writes and lends the pages on either
// side of the first whole chunk's start, 63, 64 and 65, and the batch read
// that spans them.
func TestMemAcrossChunkBoundary(t *testing.T) {
	m := NewMem()
	growMem(t, m, 66)
	ids := []page.ID{memChunk - 1, memChunk, memChunk + 1}
	for _, id := range ids {
		var p page.Page
		p.Format(100, page.KindData)
		p.SetNext(id * 10)
		if err := m.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		var q page.Page
		if err := m.ReadPage(id, &q); err != nil {
			t.Fatal(err)
		}
		lent, err := m.Lend(id)
		if err != nil {
			t.Fatal(err)
		}
		if q.Next() != id*10 || lent.Next() != id*10 || *lent != q {
			t.Fatalf("page %d: read next %d, lent next %d, want %d", id, q.Next(), lent.Next(), id*10)
		}
	}
	run := make([]page.Page, 3)
	if err := m.ReadPages(ids[0], run); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if run[i].Next() != id*10 {
			t.Fatalf("ReadPages: page %d next %d, want %d", id, run[i].Next(), id*10)
		}
	}
	if err := m.ReadPages(memChunk, make([]page.Page, 3)); err == nil {
		t.Fatal("ReadPages past the end succeeded")
	}
}

// TestMemTruncateEndsLoans: after Truncate every page is out of range to
// Lend and ReadPage alike, and the pages allocated next are fresh memory,
// not the pages a caller may still hold on loan.
func TestMemTruncateEndsLoans(t *testing.T) {
	m := NewMem()
	growMem(t, m, 70)
	old, err := m.Lend(65)
	if err != nil {
		t.Fatal(err)
	}
	old[0] = 1
	if err := m.Truncate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []page.ID{0, 65} {
		if _, err := m.Lend(id); err == nil {
			t.Errorf("Lend(%d) after Truncate succeeded", id)
		}
		var q page.Page
		if err := m.ReadPage(id, &q); err == nil {
			t.Errorf("ReadPage(%d) after Truncate succeeded", id)
		}
	}
	growMem(t, m, 70)
	p, err := m.Lend(65)
	if err != nil {
		t.Fatal(err)
	}
	if p == old || *p != (page.Page{}) {
		t.Fatal("page 65 reallocated after Truncate is the old page on loan")
	}
}

// TestMemConcurrentLend runs lock-free Lend and NumPages beside Allocate
// and WritePage. Under -race this checks the directory is published
// safely: a reader sees a directory whose every page below its count is
// addressable and holds what was written before the count grew.
func TestMemConcurrentLend(t *testing.T) {
	const total = 3000
	m := NewMem()
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; m.NumPages() < total; i++ {
				n := m.NumPages()
				if n == 0 {
					continue
				}
				id := page.ID((i*7 + r) % n)
				p, err := m.Lend(id)
				if err != nil {
					errs <- err.Error()
					return
				}
				// A page is written before the next one is allocated, so a
				// page below the count minus one is complete.
				if int(id) < n-1 && p.Next() != id {
					errs <- "lent page does not hold what was written"
					return
				}
			}
		}(r)
	}
	for i := 0; i < total; i++ {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var p page.Page
		p.SetNext(id)
		if err := m.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
