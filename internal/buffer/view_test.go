package buffer

import (
	"fmt"
	"sync"
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// stamp writes a recognizable byte over a page's tuple area, leaving the
// header alone.
func stamp(p *page.Page, b byte) {
	for i := page.HeaderSize; i < page.Size; i++ {
		p[i] = b
	}
}

// stamped checks that every byte of the tuple area is the same, and returns
// it: a page caught half-written fails here.
func stamped(p *page.Page) (byte, error) {
	b := p[page.HeaderSize]
	for i := page.HeaderSize; i < page.Size; i++ {
		if p[i] != b {
			return 0, fmt.Errorf("torn page: byte %d is %d, byte %d is %d", page.HeaderSize, b, i, p[i])
		}
	}
	return b, nil
}

// TestViewLendsOnlyCleanPages walks one page through its states and checks
// which memory a view of it is: the store's own page while the page is
// clean, the frame's private image from the moment a writer dirties it
// until it has been flushed and evicted — never the store's page while a
// flush of it is still to come.
func TestViewLendsOnlyCleanPages(t *testing.T) {
	m := storage.NewMem()
	for i := 0; i < 2; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(id page.ID) *page.Page {
		p, err := m.Lend(id)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	w := New("r", m)
	r := w.WithAccount(new(Stats))

	v, err := r.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != stored(0) {
		t.Fatal("view of a clean page of a lending store is a copy")
	}

	// A writer dirties page 0. Its scratch is private.
	p, err := w.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if p == stored(0) {
		t.Fatal("Fetch handed the writer the store's own page")
	}
	stamp(p, 7)
	w.MarkDirty()

	// The reader now sees the new content, from the frame, while the store
	// still holds the old: the flush has not happened.
	v, err = r.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if v == stored(0) {
		t.Fatal("view of a dirty page is the store's page: the coming flush would write under the reader")
	}
	if b, err := stamped(v); err != nil || b != 7 {
		t.Fatalf("view of the dirty page: stamp %d, %v; want 7", b, err)
	}
	if b, _ := stamped(stored(0)); b != 0 {
		t.Fatalf("store already holds stamp %d before any flush", b)
	}
	if got := w.Stats().Writes; got != 0 {
		t.Fatalf("Writes = %d before the eviction", got)
	}

	// The reader's miss on page 1 evicts and flushes page 0. The view of
	// page 0 it held was retired by that call; a second reader that still
	// holds one keeps reading the image, which the flush does not touch.
	r2 := w.WithAccount(new(Stats))
	held, err := r2.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.View(1); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d after the eviction, want 1", got)
	}
	if held == stored(0) {
		t.Fatal("second reader's view of the dirty page was on loan across its flush")
	}
	if b, err := stamped(held); err != nil || b != 7 {
		t.Fatalf("held view after the flush: stamp %d, %v; want 7", b, err)
	}

	// Flushed and evicted: page 0 is clean again and may be lent.
	v, err = r.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != stored(0) {
		t.Fatal("view of the flushed page is still a copy")
	}
	if b, err := stamped(v); err != nil || b != 7 {
		t.Fatalf("flushed page: stamp %d, %v; want 7", b, err)
	}
}

// recordingFile logs the read calls that reach the store beneath it. Like
// every wrapper it exposes only storage.File, so it cannot lend.
type recordingFile struct {
	storage.File
	mu    sync.Mutex
	reads []string
}

func (f *recordingFile) ReadPage(id page.ID, p *page.Page) error {
	f.mu.Lock()
	f.reads = append(f.reads, fmt.Sprintf("ReadPage(%d)", id))
	f.mu.Unlock()
	return f.File.ReadPage(id, p)
}

func (f *recordingFile) ReadPages(id page.ID, ps []page.Page) error {
	f.mu.Lock()
	f.reads = append(f.reads, fmt.Sprintf("ReadPages(%d,%d)", id, len(ps)))
	f.mu.Unlock()
	return f.File.ReadPages(id, ps)
}

// TestWrappedStoreSeesEveryRead drives one fetch sequence over a bare
// storage.Mem and over the same store behind a wrapper. The counters must
// agree to the last hit, the wrapper must see one read call per miss, in
// order — the sequence the buffer manager issued before views existed —
// and nothing it returns may be the store's own memory.
func TestWrappedStoreSeesEveryRead(t *testing.T) {
	const pages = 6
	type step struct {
		op    string // view, fetch, ahead, dirty
		id    page.ID
		ahead int
	}
	steps := []step{
		{op: "view", id: 0}, {op: "view", id: 0}, {op: "view", id: 1},
		{op: "fetch", id: 2}, {op: "dirty"}, {op: "view", id: 2}, {op: "view", id: 0},
		{op: "ahead", id: 3, ahead: 2}, {op: "view", id: 4}, {op: "view", id: 5},
		{op: "fetch", id: 1}, {op: "view", id: 1}, {op: "ahead", id: 0, ahead: 4},
	}
	wantReads := []string{
		"ReadPage(0)", "ReadPage(1)", "ReadPage(2)", "ReadPage(0)",
		"ReadPages(3,2)", "ReadPage(5)", "ReadPage(1)", "ReadPages(0,1)",
	}

	run := func(wrap bool) (Stats, *recordingFile) {
		m := storage.NewMem()
		for i := 0; i < pages; i++ {
			if _, err := m.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		var f storage.File = m
		var rec *recordingFile
		if wrap {
			rec = &recordingFile{File: m}
			f = rec
		}
		b := NewPooled("r", f, 2, 1)
		for _, s := range steps {
			var p *page.Page
			var err error
			switch s.op {
			case "view":
				p, err = b.View(s.id)
			case "fetch":
				p, err = b.Fetch(s.id)
				if err == nil {
					stamp(p, byte(s.id)+1)
				}
			case "ahead":
				p, err = b.ViewAhead(s.id, s.ahead)
			case "dirty":
				b.MarkDirty()
				continue
			}
			if err != nil {
				t.Fatalf("%s(%d): %v", s.op, s.id, err)
			}
			if lent, _ := m.Lend(s.id); wrap && p == lent {
				t.Fatalf("%s(%d) on a wrapped store returned the store's own page", s.op, s.id)
			}
		}
		return b.Stats(), rec
	}

	bare, _ := run(false)
	wrapped, rec := run(true)
	if bare != wrapped {
		t.Fatalf("counters differ: bare %+v, wrapped %+v", bare, wrapped)
	}
	// What the copying buffer manager counted for the same sequence.
	if want := (Stats{Reads: 9, Writes: 1, Hits: 4, ReadOps: 8}); bare != want {
		t.Fatalf("counters %+v, want %+v", bare, want)
	}
	if fmt.Sprint(rec.reads) != fmt.Sprint(wantReads) {
		t.Fatalf("wrapped store saw\n  %v, want\n  %v", rec.reads, wantReads)
	}
}

// TestViewsUnderLatchProtocol runs readers and a writer against one pool the
// way the engine does: a reader holds the relation latch shared for as long
// as it reads through a view, the writer holds it exclusively from Fetch to
// MarkDirty, and flushes happen whenever some handle's miss evicts a dirty
// frame — under a reader's shared latch as often as not. Every page a
// reader sees must be whole. Run under -race this is the proof that no
// flush writes memory a reader holds on loan; it covers both kinds of
// store.
func TestViewsUnderLatchProtocol(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		t.Run(fmt.Sprintf("wrapped=%v", wrap), func(t *testing.T) {
			const pages = 8
			m := storage.NewMem()
			for i := 0; i < pages; i++ {
				if _, err := m.Allocate(); err != nil {
					t.Fatal(err)
				}
			}
			var f storage.File = m
			if wrap {
				f = &recordingFile{File: m}
			}
			root := NewPooled("r", f, 2, 0)
			var latch sync.RWMutex
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 4)

			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					h := root.WithAccount(new(Stats))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						latch.RLock()
						// A statement: a few pages, each read in place.
						for k := 0; k < 3; k++ {
							p, err := h.View(page.ID((i + r + 3*k) % pages))
							if err == nil {
								_, err = stamped(p)
							}
							if err != nil {
								latch.RUnlock()
								errs <- err
								return
							}
						}
						latch.RUnlock()
					}
				}(r)
			}

			for i := 0; i < 2000; i++ {
				latch.Lock()
				p, err := root.Fetch(page.ID(i % pages))
				if err != nil {
					latch.Unlock()
					t.Fatal(err)
				}
				stamp(p, byte(i))
				root.MarkDirty()
				latch.Unlock()
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestViewAllocatesNothing pins the steady state of both read paths: a
// handle walking a file page after page, every fetch a miss, allocates
// nothing — a lending store has nothing to copy, and a wrapped one is read
// into the image the handle's previous view just released. Sequential
// walks fetch with ViewAhead, which on a single-frame pool must be View
// exactly, allocations included.
func TestViewAllocatesNothing(t *testing.T) {
	const pages = 4
	m := storage.NewMem()
	for i := 0; i < pages; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fetches := map[string]func(b *Buffered, id page.ID) (*page.Page, error){
		"View": (*Buffered).View,
		"ViewAhead": func(b *Buffered, id page.ID) (*page.Page, error) {
			return b.ViewAhead(id, pages-1-int(id))
		},
	}
	for name, fetch := range fetches {
		t.Run(name, func(t *testing.T) {
			for _, f := range []storage.File{m, struct{ storage.File }{m}} {
				b := New("r", f)
				i := 0
				walk := func() {
					if _, err := fetch(b, page.ID(i%pages)); err != nil {
						t.Fatal(err)
					}
					i++
				}
				walk()
				if n := testing.AllocsPerRun(100, walk); n != 0 {
					t.Errorf("%s on %T allocates %.0f times per miss in steady state", name, f, n)
				}
			}
		})
	}
}

// chainMem builds a file of pages whose overflow links form one chain,
// visiting the pages out of file order, and returns the chain's head.
func chainMem(t *testing.T, pages int) (*storage.Mem, page.ID) {
	t.Helper()
	m := storage.NewMem()
	for i := 0; i < pages; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	// Page i links to page (i+7) mod pages, the last of the cycle to Nil.
	id := page.ID(0)
	for i := 0; i < pages; i++ {
		var p page.Page
		p.Format(100, page.KindData)
		stamp(&p, byte(id))
		next := page.ID((int(id) + 7) % pages)
		if i == pages-1 {
			next = page.Nil
		}
		p.SetNext(next)
		if err := m.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
		id = next
	}
	return m, 0
}

// TestPrefetchMovesNoCounter walks one overflow chain over a bare
// storage.Mem, whose views are lent and prefetched with their successors,
// and over the same store wrapped, which neither lends nor prefetches. The
// pool counters and the session account must be identical, and so must
// every page seen: prefetching is invisible to everything but the caches.
func TestPrefetchMovesNoCounter(t *testing.T) {
	const pages = 17
	m, head := chainMem(t, pages)
	for _, frames := range []int{1, 3} {
		walk := func(f storage.File) (Stats, Stats, []byte) {
			root := NewPooled("r", f, frames, 0)
			acct := new(Stats)
			h := root.WithAccount(acct)
			var seen []byte
			for pass := 0; pass < 2; pass++ {
				for id := head; id != page.Nil; {
					p, err := h.View(id)
					if err != nil {
						t.Fatal(err)
					}
					b, err := stamped(p)
					if err != nil {
						t.Fatal(err)
					}
					seen = append(seen, b)
					id = p.Next()
				}
			}
			return root.Stats(), *acct, seen
		}
		bareStats, bareAcct, bareSeen := walk(m)
		wrapStats, wrapAcct, wrapSeen := walk(struct{ storage.File }{m})
		if bareStats != wrapStats || bareAcct != wrapAcct {
			t.Fatalf("%d frames: bare pool %+v account %+v; wrapped pool %+v account %+v",
				frames, bareStats, bareAcct, wrapStats, wrapAcct)
		}
		if bareStats.Reads+bareStats.Hits != 2*pages || bareAcct != bareStats {
			t.Fatalf("%d frames: pool %+v, account %+v for %d views", frames, bareStats, bareAcct, 2*pages)
		}
		if string(bareSeen) != string(wrapSeen) || len(bareSeen) != 2*pages {
			t.Fatalf("%d frames: bare walk saw %v, wrapped %v", frames, bareSeen, wrapSeen)
		}
	}
}

// TestViewLinkPastFile: a lent page whose overflow link names no page of
// the file — past its end, or negative but not Nil — is viewed without an
// error; its successor is simply not prefetched.
func TestViewLinkPastFile(t *testing.T) {
	m := storage.NewMem()
	for i := 0; i < 2; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	b := New("r", m)
	for _, next := range []page.ID{2, 1 << 30, -5, page.Nil} {
		var p page.Page
		p.Format(100, page.KindData)
		p.SetNext(next)
		if err := m.WritePage(1, &p); err != nil {
			t.Fatal(err)
		}
		if _, err := b.View(0); err != nil { // evict page 1
			t.Fatal(err)
		}
		v, err := b.View(1)
		if err != nil {
			t.Fatalf("View of a page linked to %d: %v", next, err)
		}
		if v.Next() != next {
			t.Fatalf("view links to %d, want %d", v.Next(), next)
		}
	}
}
