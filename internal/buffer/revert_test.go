package buffer

import (
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// stampedPool returns a pool of frames frames over a lending store of n
// pages, page id stamped id+1 and every frame clean.
func stampedPool(t *testing.T, n, frames int) (*Buffered, *storage.Mem) {
	t.Helper()
	m := storage.NewMem()
	for i := 0; i < n; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	b := NewPooled("test", m, frames, 0)
	for id := 0; id < n; id++ {
		p, err := b.Fetch(page.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		stamp(p, byte(id+1))
		b.MarkDirty()
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return b, m
}

// scribble stamps page id with s through b.
func scribble(t *testing.T, b *Buffered, id page.ID, s byte) {
	t.Helper()
	p, err := b.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	stamp(p, s)
	b.MarkDirty()
}

// wantStamps checks that page id of b reads stamp id+1, for every page.
func wantStamps(t *testing.T, label string, b *Buffered, n int) {
	t.Helper()
	for id := 0; id < n; id++ {
		p, err := b.View(page.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		if s, err := stamped(p); err != nil || s != byte(id+1) {
			t.Fatalf("%s: page %d has stamp %d (%v), want %d", label, id, s, err, id+1)
		}
	}
}

// TestRevertPutsPagesBack dirties every page of an armed pool, some of
// them twice and most of them evicted (written in place into the lending
// store), allocates two more, and reverts: every page reads its old image,
// in the pool and, once flushed, in the store; the file is its old size;
// the lent pages kept their addresses; and the revert moved no counter.
func TestRevertPutsPagesBack(t *testing.T) {
	const n = 4
	for _, frames := range []int{1, 3} {
		b, m := stampedPool(t, n, frames)
		lent, err := m.Lend(0)
		if err != nil {
			t.Fatal(err)
		}
		b.Arm()
		for id := 0; id < n; id++ {
			scribble(t, b, page.ID(id), 0xee)
		}
		scribble(t, b, 0, 0xef)
		for i := 0; i < 2; i++ {
			_, p, err := b.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			stamp(p, 0xaa)
		}
		before := b.Stats()
		if err := b.End(false); err != nil {
			t.Fatalf("%d frames: revert: %v", frames, err)
		}
		if got := b.Stats(); got != before {
			t.Fatalf("%d frames: the revert moved the counters: %+v, was %+v", frames, got, before)
		}
		if got := b.NumPages(); got != n {
			t.Fatalf("%d frames: %d pages after the revert, want %d", frames, got, n)
		}
		wantStamps(t, "after the revert", b, n)
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			p, err := m.Lend(page.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			if s, _ := stamped(p); s != byte(id+1) {
				t.Fatalf("%d frames: the store's page %d has stamp %d, want %d", frames, id, s, id+1)
			}
		}
		if again, _ := m.Lend(0); again != lent {
			t.Fatalf("%d frames: the revert moved a lent page", frames)
		}
		// A page allocated after the revert is a fresh one.
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
		p, err := m.Lend(n)
		if err != nil {
			t.Fatal(err)
		}
		if *p != (page.Page{}) {
			t.Fatalf("%d frames: a page given back came back unzeroed", frames)
		}
	}
}

// TestEndKeepsWork: a pool ended keeping its writes keeps them, and a
// revert after that does nothing.
func TestEndKeepsWork(t *testing.T) {
	b, _ := stampedPool(t, 2, 1)
	b.Arm()
	scribble(t, b, 0, 0xee)
	scribble(t, b, 1, 0xee)
	b.End(true)
	if err := b.End(false); err != nil {
		t.Fatal(err)
	}
	for id := page.ID(0); id < 2; id++ {
		p, err := b.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := stamped(p); s != 0xee {
			t.Fatalf("page %d has stamp %d after End(true), want the statement's", id, s)
		}
	}
}

// TestRevertReportsFailedWrite: a page evicted during the statement goes
// back through the store, and when the store refuses the write the revert
// says so, having put back every page it could. The image it could not
// write is kept: Close fails while the store refuses its write, the
// page's next view shows it, and a flush then writes it.
func TestRevertReportsFailedWrite(t *testing.T) {
	m := storage.NewMem()
	for i := 0; i < 2; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	f := &failingFile{File: m}
	b := New("test", f)
	b.Arm()
	scribble(t, b, 0, 0xee)
	scribble(t, b, 1, 0xee) // evicts page 0, written
	f.fail = true
	if err := b.End(false); err == nil {
		t.Fatal("the revert of an evicted page through a failing store succeeded")
	}
	p, err := b.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := stamped(p); s != 0 {
		t.Fatalf("resident page 1 has stamp %d after the revert, want its old image", s)
	}
	if b.Run() != nil {
		t.Fatal("a run was given out with an image unwritten")
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close succeeded with the revert's write still refused")
	}
	f.fail = false
	if p, err = b.View(0); err != nil {
		t.Fatal(err)
	}
	if s, _ := stamped(p); s != 0 {
		t.Fatalf("page 0 has stamp %d after the revert, want its old image", s)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	var disk page.Page
	if err := m.ReadPage(0, &disk); err != nil {
		t.Fatal(err)
	}
	if s, _ := stamped(&disk); s != 0 {
		t.Fatalf("page 0 has stamp %d in the store after the flush, want its old image", s)
	}
}

// TestArmAllocatesNothing: once its images are made, a stream of armed
// statements that each dirty a page and keep their work allocates nothing.
func TestArmAllocatesNothing(t *testing.T) {
	b, _ := stampedPool(t, 2, 1)
	stmt := func() {
		b.Arm()
		for id := page.ID(0); id < 2; id++ {
			p, err := b.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			p[page.Size-1]++
			b.MarkDirty()
		}
		b.End(true)
	}
	stmt()
	if n := testing.AllocsPerRun(100, stmt); n != 0 {
		t.Fatalf("an armed statement allocated %.1f times", n)
	}
}
