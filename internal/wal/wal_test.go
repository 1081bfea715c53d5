package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// testPage builds a deterministic page whose payload bytes derive from the
// seed, so replay results can be compared byte-for-byte.
func testPage(seed byte) *page.Page {
	var p page.Page
	p.Format(16, 0)
	for i := page.HeaderSize; i < page.Size; i++ {
		p[i] = seed + byte(i%31)
	}
	return &p
}

// newFile opens a logged memory file of n pages under m.
func newFile(t *testing.T, m *Manager, name string, n int) *LoggedFile {
	t.Helper()
	mem := storage.NewMem()
	for i := 0; i < n; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return Logged(name, mem, m)
}

// park writes p as page id of f, failing the test on error.
func park(t *testing.T, f *LoggedFile, id page.ID, p *page.Page) {
	t.Helper()
	if err := f.WritePage(id, p); err != nil {
		t.Fatalf("park %s/%d: %v", f.name, id, err)
	}
}

// appendRaw appends records built by enc straight to the log — how the
// tests stage logs the commit protocol never writes, such as a commit
// whose end record was torn off.
func appendRaw(t *testing.T, m *Manager, enc func(buf []byte) []byte) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.writeLocked(enc(nil)); err != nil {
		t.Fatal(err)
	}
}

// rawImage is appendRaw's encoder for one image record of txn.
func rawImage(txn uint64, rel string, id page.ID, p *page.Page) func([]byte) []byte {
	return func(buf []byte) []byte { return appendImage(buf, txn, rel, id, p) }
}

// buildLog appends a small deterministic schedule and returns the manager,
// its memory log, and the LSN of every record (in order):
//
//	txn1:  image h/0, image h/1, end   (one commit)
//	txn99: image i/0                   (a commit torn before its end)
//	txn0:  image i/1                   (checkpoint leftover, always committed)
func buildLog(t *testing.T) (*Manager, *storage.MemLog, []int64) {
	t.Helper()
	l := storage.NewMemLog()
	m := NewManager(l)
	h := newFile(t, m, "h", 2)
	i := newFile(t, m, "i", 2)
	for id := 0; id < 2; id++ {
		park(t, h, page.ID(id), testPage(byte(10+id)))
	}
	if _, err := m.Commit([]string{"h"}, []byte(`{"now":42}`)); err != nil {
		t.Fatalf("commit: %v", err)
	}
	var lsns []int64
	if _, err := m.Scan(0, func(r *Record) error { lsns = append(lsns, r.LSN); return nil }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	lsns = append(lsns, m.Tail())
	appendRaw(t, m, rawImage(99, "i", 0, testPage(99)))
	lsns = append(lsns, m.Tail())
	park(t, i, 1, testPage(55))
	if err := m.WriteBack(); err != nil {
		t.Fatalf("write back: %v", err)
	}
	return m, l, lsns
}

func TestScanRoundtrip(t *testing.T) {
	m, _, lsns := buildLog(t)
	var got []*Record
	valid, err := m.Scan(0, func(r *Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if valid != m.Tail() {
		t.Fatalf("valid tail %d, want %d", valid, m.Tail())
	}
	if len(got) != 5 {
		t.Fatalf("scanned %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.LSN != lsns[i] {
			t.Errorf("record %d: LSN %d, want %d", i, r.LSN, lsns[i])
		}
	}
	if got[0].Type != recImage || got[0].Rel != "h" || got[0].Page != 0 || got[0].Txn != 1 {
		t.Errorf("record 0 malformed: %+v", got[0])
	}
	if got[2].Type != recEnd || got[2].Txn != 1 || string(got[2].Meta) != `{"now":42}` {
		t.Errorf("record 2 malformed: %+v", got[2])
	}
	if got[3].Type != recImage || got[3].Txn != 99 || got[3].Rel != "i" {
		t.Errorf("record 3 malformed: %+v", got[3])
	}
	if got[4].Txn != 0 || got[4].Rel != "i" || got[4].Page != 1 {
		t.Errorf("record 4: %+v, want the background image i/1", got[4])
	}
}

// TestTornTailEveryBoundary truncates the log at every byte offset and
// asserts the torn-tail contract: Scan never errors, never yields a record
// that extends past the truncation point, and yields exactly the records
// wholly contained in the surviving prefix.
func TestTornTailEveryBoundary(t *testing.T) {
	m, l, lsns := buildLog(t)
	size := m.Tail()
	whole := make([]byte, size)
	if _, err := l.ReadAt(whole, 0); err != nil {
		t.Fatalf("read log: %v", err)
	}
	bounds := append(append([]int64{}, lsns...), size)
	for cut := int64(0); cut <= size; cut++ {
		tl := storage.NewMemLog()
		if cut > 0 {
			if _, err := tl.WriteAt(whole[:cut], 0); err != nil {
				t.Fatalf("cut %d: seed: %v", cut, err)
			}
		}
		tm := NewManager(tl)
		var n int
		valid, err := tm.Scan(0, func(r *Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: scan: %v", cut, err)
		}
		want := 0
		var wantValid int64
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i+1] <= cut {
				want = i + 1
				wantValid = bounds[i+1]
			}
		}
		if n != want || valid != wantValid {
			t.Fatalf("cut %d: %d records valid to %d, want %d records valid to %d",
				cut, n, valid, want, wantValid)
		}
	}
}

// TestTornTailCorruption flips a byte inside the middle record and asserts
// the scan stops just before it — CRC, not length, catches in-place damage.
func TestTornTailCorruption(t *testing.T) {
	m, l, lsns := buildLog(t)
	mid := lsns[2] // the end record
	var b [1]byte
	if _, err := l.ReadAt(b[:], mid+frameHeader); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0xff
	if _, err := l.WriteAt(b[:], mid+frameHeader); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	var n int
	valid, err := m.Scan(0, func(r *Record) error { n++; return nil })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n != 2 || valid != mid {
		t.Fatalf("scanned %d records valid to %d, want 2 records valid to %d", n, valid, mid)
	}
}

func TestResolveRules(t *testing.T) {
	m, _, _ := buildLog(t)
	rec, err := m.Resolve(0)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if rec.Records != 5 || len(rec.Ends) != 1 {
		t.Fatalf("records %d ends %d, want 5 and 1", rec.Records, len(rec.Ends))
	}
	// Committed images redo: h/0 and h/1 carry the logged images.
	for id := 0; id < 2; id++ {
		k := PageKey{"h", page.ID(id)}
		want := testPage(byte(10 + id))
		if rec.Pages[k] == nil || !bytes.Equal(rec.Pages[k][page.HeaderSize:], want[page.HeaderSize:]) {
			t.Errorf("h/%d: wrong resolved image", id)
		}
	}
	// The image without an end record is dropped: nothing to undo.
	if rec.Pages[PageKey{"i", 0}] != nil {
		t.Errorf("i/0: an image without an end record must not be redone")
	}
	// Background write redone.
	if rec.Pages[PageKey{"i", 1}] == nil {
		t.Errorf("i/1: background image must be redone")
	}
	if len(rec.Order) != 3 {
		t.Errorf("order has %d keys, want 3", len(rec.Order))
	}
}

// TestResolveCommittedBeatsUncommitted covers both orders of a committed
// image and an image without an end record of the same page, and two
// images without one: only committed images are ever redone.
func TestResolveCommittedBeatsUncommitted(t *testing.T) {
	resolve := func(t *testing.T, encs ...func([]byte) []byte) *page.Page {
		t.Helper()
		m := NewManager(storage.NewMemLog())
		for _, enc := range encs {
			appendRaw(t, m, enc)
		}
		rec, err := m.Resolve(0)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Pages[PageKey{"r", 0}]
	}
	end := func(txn uint64) func([]byte) []byte {
		return func(buf []byte) []byte { return appendEnd(buf, txn, nil) }
	}
	same := func(got, want *page.Page) bool {
		return got != nil && bytes.Equal(got[page.HeaderSize:], want[page.HeaderSize:])
	}
	// Order 1: committed image first, uncommitted image after.
	if got := resolve(t, rawImage(1, "r", 0, testPage(1)), end(1), rawImage(2, "r", 0, testPage(2))); !same(got, testPage(1)) {
		t.Errorf("order 1: committed image lost to a later uncommitted one")
	}
	// Order 2: uncommitted image first, then a committed one.
	if got := resolve(t, rawImage(1, "r", 0, testPage(2)), rawImage(2, "r", 0, testPage(3)), end(2)); !same(got, testPage(3)) {
		t.Errorf("order 2: committed image must be redone")
	}
	// Two uncommitted images: the page is not touched at all.
	if got := resolve(t, rawImage(1, "r", 0, testPage(2)), rawImage(1, "r", 0, testPage(4))); got != nil {
		t.Errorf("uncommitted images only: page resolved, want untouched")
	}
}

// TestResolveRejectsUndoFormat stages a record of the retired steal/undo
// format — an image record flagged as carrying a before-image — and
// requires recovery to fail with ErrUndoFormat rather than treat it as a
// torn tail, which would silently drop the committed records behind it.
// The same record cut short is an ordinary torn tail.
func TestResolveRejectsUndoFormat(t *testing.T) {
	undo := func(buf []byte) []byte {
		start := len(buf)
		buf = appendImage(buf, 1, "r", 0, testPage(2))
		buf = append(buf[:start+frameHeader+minPayload], flagBefore)
		buf = binary.LittleEndian.AppendUint16(buf, 1)
		buf = append(buf, 'r', 0, 0, 0, 0)
		buf = append(buf, testPage(9)[:]...)
		buf = append(buf, testPage(2)[:]...)
		return seal(buf, start)
	}
	l := storage.NewMemLog()
	m := NewManager(l)
	appendRaw(t, m, undo)
	appendRaw(t, m, func(buf []byte) []byte { return appendEnd(buf, 1, nil) })
	if _, err := m.Resolve(0); !errors.Is(err, ErrUndoFormat) {
		t.Fatalf("resolve of an undo-format log: %v, want ErrUndoFormat", err)
	}
	if err := l.Truncate(m.Tail() - 10); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Resolve(0)
	if err == nil {
		t.Fatalf("a cut end record must leave the undo record whole and rejected, resolved %d records", rec.Records)
	}
	if err := l.Truncate(100); err != nil {
		t.Fatal(err)
	}
	rec, err = m.Resolve(0)
	if err != nil || rec.Records != 0 || rec.Valid != 0 {
		t.Fatalf("torn undo record: %v, %+v; want an empty torn tail", err, rec)
	}
}

// applyTo writes a Recovery onto a fresh memory file set and returns the
// raw bytes per relation — the observable outcome of a replay.
func applyTo(t *testing.T, rec *Recovery) map[string][]byte {
	t.Helper()
	files := map[string]storage.File{}
	for _, k := range rec.Order {
		f, ok := files[k.Rel]
		if !ok {
			f = storage.NewMem()
			files[k.Rel] = f
		}
		for f.NumPages() <= int(k.ID) {
			if _, err := f.Allocate(); err != nil {
				t.Fatalf("allocate: %v", err)
			}
		}
		if err := f.WritePage(k.ID, rec.Pages[k]); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	out := map[string][]byte{}
	for rel, f := range files {
		var all []byte
		for id := 0; id < f.NumPages(); id++ {
			var p page.Page
			if err := f.ReadPage(page.ID(id), &p); err != nil {
				t.Fatalf("read: %v", err)
			}
			all = append(all, p[:]...)
		}
		out[rel] = all
	}
	return out
}

// TestReplayIdempotence replays the same log twice, and replays it resumed
// from a crash after every record, asserting byte-identical final pages:
// recovery must depend only on log content, never on current file state.
func TestReplayIdempotence(t *testing.T) {
	m, _, lsns := buildLog(t)
	rec, err := m.Resolve(0)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	first := applyTo(t, rec)
	rec2, err := m.Resolve(0)
	if err != nil {
		t.Fatalf("re-resolve: %v", err)
	}
	second := applyTo(t, rec2)
	for rel, b := range first {
		if !bytes.Equal(b, second[rel]) {
			t.Errorf("%s: double replay diverged", rel)
		}
	}
	// Crash-resume: apply only a prefix of the plan (a recovery that died
	// after k writes), then run a full replay over the half-written files;
	// the outcome must equal a clean replay because committed images
	// overwrite unconditionally.
	for k := 0; k <= len(rec.Order); k++ {
		partial := &Recovery{Pages: rec.Pages, Order: rec.Order[:k]}
		files := map[string]storage.File{}
		seed := applyTo(t, partial)
		for rel, b := range seed {
			f := storage.NewMem()
			for off := 0; off < len(b); off += page.Size {
				if _, err := f.Allocate(); err != nil {
					t.Fatal(err)
				}
				var p page.Page
				copy(p[:], b[off:off+page.Size])
				if err := f.WritePage(page.ID(off/page.Size), &p); err != nil {
					t.Fatal(err)
				}
			}
			files[rel] = f
		}
		// Full replay over the partially recovered files.
		for _, key := range rec.Order {
			f, ok := files[key.Rel]
			if !ok {
				f = storage.NewMem()
				files[key.Rel] = f
			}
			for f.NumPages() <= int(key.ID) {
				if _, err := f.Allocate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.WritePage(key.ID, rec.Pages[key]); err != nil {
				t.Fatal(err)
			}
		}
		for rel, want := range first {
			f := files[rel]
			var all []byte
			for id := 0; id < f.NumPages(); id++ {
				var p page.Page
				if err := f.ReadPage(page.ID(id), &p); err != nil {
					t.Fatal(err)
				}
				all = append(all, p[:]...)
			}
			if !bytes.Equal(all, want) {
				t.Errorf("resume after %d writes: %s diverged from clean replay", k, rel)
			}
		}
	}
	_ = lsns
}

// TestGoldenTornTail replays the checked-in fixture — a log with two
// committed records and a record torn mid-page — and asserts the exact
// valid offset, record count, and resolved pages. The fixture pins the
// on-disk format: if framing, the CRC, or the payload layout change, this
// fails before any cross-version incompatibility can ship silently.
func TestGoldenTornTail(t *testing.T) {
	fixture := filepath.Join("testdata", "torn_tail.wal")
	if os.Getenv("WAL_WRITE_GOLDEN") != "" {
		writeGoldenTornTail(t, fixture)
	}
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("fixture: %v (regenerate with WAL_WRITE_GOLDEN=1)", err)
	}
	l := storage.NewMemLog()
	if _, err := l.WriteAt(data, 0); err != nil {
		t.Fatalf("seed: %v", err)
	}
	m := NewManager(l)
	rec, err := m.Resolve(0)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if rec.Records != 3 {
		t.Errorf("records %d, want 3 (image, image, end; torn 4th discarded)", rec.Records)
	}
	const wantValid = 2127 // two image frames (8+1046 each) + end frame (8+11)
	if rec.Valid != wantValid {
		t.Errorf("valid %d, want %d", rec.Valid, wantValid)
	}
	if len(rec.Ends) != 1 || string(rec.Ends[0]) != "{}" {
		t.Errorf("ends %q, want one {} record", rec.Ends)
	}
	for id := 0; id < 2; id++ {
		k := PageKey{"golden", page.ID(id)}
		img := rec.Pages[k]
		if img == nil {
			t.Fatalf("golden/%d missing from resolution", id)
		}
		want := testPage(byte(100 + id))
		if !bytes.Equal(img[page.HeaderSize:], want[page.HeaderSize:]) {
			t.Errorf("golden/%d: resolved image diverges from fixture expectation", id)
		}
	}
}

// writeGoldenTornTail regenerates the fixture: one commit of two images
// and an end record for txn 1, then a second commit torn 300 bytes into
// its first frame — a crash mid-append.
func writeGoldenTornTail(t *testing.T, path string) {
	t.Helper()
	l := storage.NewMemLog()
	m := NewManager(l)
	f := newFile(t, m, "golden", 3)
	for id := 0; id < 2; id++ {
		park(t, f, page.ID(id), testPage(byte(100+id)))
	}
	if _, err := m.Commit([]string{"golden"}, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	cut := m.Tail()
	park(t, f, 2, testPage(103))
	if _, err := m.Commit([]string{"golden"}, nil); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cut+300)
	if _, err := l.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitLeader exercises WaitDurable's leader election directly:
// many goroutines commit and wait concurrently against a sync-counting
// log; every waiter must return with its record durable, with far fewer
// syncs than commits.
func TestGroupCommitLeader(t *testing.T) {
	l := &countingLog{Log: storage.NewMemLog()}
	m := NewManager(l)
	m.SetWindow(2 * time.Millisecond)
	const n = 24
	files := make([]*LoggedFile, n)
	for g := range files {
		files[g] = newFile(t, m, fmt.Sprintf("r%d", g), 1)
	}
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func(g int) {
			f := files[g]
			if err := f.WritePage(0, testPage(byte(g))); err != nil {
				errs <- err
				return
			}
			end, err := m.Commit([]string{f.name}, nil)
			if err != nil {
				errs <- err
				return
			}
			errs <- m.WaitDurable(end)
		}(g)
	}
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("commit %d: %v", g, err)
		}
	}
	syncs := l.syncs.Load()
	if syncs == 0 {
		t.Fatalf("no syncs at all")
	}
	if syncs >= n {
		t.Errorf("%d syncs for %d commits: group commit is not batching", syncs, n)
	}
	if appends := l.appends.Load(); appends != n {
		t.Errorf("%d appends for %d commits, want one each", appends, n)
	}
	t.Logf("%d commits, %d syncs", n, syncs)
}

type countingLog struct {
	storage.Log
	syncs, appends atomic.Int64
}

func (c *countingLog) Sync() error {
	c.syncs.Add(1)
	return c.Log.Sync()
}

func (c *countingLog) WriteAt(b []byte, off int64) (int, error) {
	c.appends.Add(1)
	return c.Log.WriteAt(b, off)
}

// recordingFile is a storage.File that records the pages written to it.
type recordingFile struct {
	storage.File
	writes []page.ID
}

func (r *recordingFile) WritePage(id page.ID, p *page.Page) error {
	r.writes = append(r.writes, id)
	return r.File.WritePage(id, p)
}

// TestLoggedFileParks walks one file through the no-steal protocol: a
// write parks the page and the data file stays untouched; reads serve the
// parked page; a commit is one append that logs each changed page once, in
// first-write order; a page rewritten unchanged after it was logged parks
// nothing, so the next commit appends only its end record; a checkpoint
// writes every parked page back in page order and empties the parked set.
func TestLoggedFileParks(t *testing.T) {
	l := &countingLog{Log: storage.NewMemLog()}
	m := NewManager(l)
	mem := storage.NewMem()
	for i := 0; i < 4; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	inner := &recordingFile{File: mem}
	f := Logged("r", inner, m)
	park(t, f, 3, testPage(3))
	park(t, f, 1, testPage(1))
	park(t, f, 3, testPage(33)) // rewritten before any commit: logged once
	park(t, f, 2, testPage(2))
	if len(inner.writes) != 0 {
		t.Fatalf("data file written during statements: pages %v", inner.writes)
	}
	var got page.Page
	if err := f.ReadPage(3, &got); err != nil || got != *testPage(33) {
		t.Fatalf("ReadPage of a parked page: %v, content mismatch %v", err, got != *testPage(33))
	}
	run := make([]page.Page, 4)
	if err := f.ReadPages(0, run); err != nil {
		t.Fatal(err)
	}
	if run[0] != (page.Page{}) || run[1] != *testPage(1) || run[2] != *testPage(2) || run[3] != *testPage(33) {
		t.Fatalf("ReadPages must lay parked pages over the file")
	}

	// The commit logs pages 3, 1 and 2 in first-write order, then the end.
	scan := func(from int64) []*Record {
		t.Helper()
		var recs []*Record
		if _, err := m.Scan(from, func(r *Record) error { recs = append(recs, r); return nil }); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	end, err := m.Commit([]string{"R"}, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	recs := scan(0)
	if l.appends.Load() != 1 || end != m.Tail() || len(recs) != 4 {
		t.Fatalf("commit: %d appends, %d records, end %d of tail %d; want 1 append of 4 records",
			l.appends.Load(), len(recs), end, m.Tail())
	}
	for i, id := range []page.ID{3, 1, 2} {
		if recs[i].Type != recImage || recs[i].Page != id || recs[i].Txn != 1 {
			t.Fatalf("record %d: %+v, want the image of page %d under txn 1", i, recs[i], id)
		}
	}
	if *recs[2].Image != *testPage(2) || recs[3].Type != recEnd {
		t.Fatalf("records 2 and 3: want page 2's parked image, then the end record")
	}

	// Rewriting a logged page unchanged — a dirty frame written through
	// again, or evicted — parks nothing: the next commit is its end alone.
	park(t, f, 2, testPage(2))
	if len(f.unlogged) != 0 {
		t.Fatalf("an unchanged rewrite of a logged page parked it again: unlogged %v", f.unlogged)
	}
	end2, err := m.Commit([]string{"r"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs = scan(end); l.appends.Load() != 2 || len(recs) != 1 || recs[0].Type != recEnd || recs[0].Txn != 2 {
		t.Fatalf("commit after an unchanged rewrite: %d records, want txn 2's end record alone", len(recs))
	}

	// A changed page is a leftover the checkpoint logs as transaction 0.
	park(t, f, 0, testPage(40))
	if err := m.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if recs = scan(end2); l.appends.Load() != 3 || len(recs) != 1 || recs[0].Page != 0 || recs[0].Txn != 0 {
		t.Fatalf("checkpoint logged %d records in %d appends, want page 0 alone as transaction 0", len(recs), l.appends.Load()-2)
	}
	if !slices.Equal(inner.writes, []page.ID{0, 1, 2, 3}) {
		t.Fatalf("write-back order %v, want pages 0..3 in page order", inner.writes)
	}
	if err := mem.ReadPage(2, &got); err != nil || got != *testPage(2) {
		t.Fatalf("page 2 on file after the checkpoint: %v, want the committed image", err)
	}
	if f.n != 0 || len(f.unlogged) != 0 {
		t.Fatalf("parked set not emptied by the checkpoint: %d parked, %d unlogged", f.n, len(f.unlogged))
	}
	// A checkpoint with nothing parked appends nothing.
	if err := m.WriteBack(); err != nil || l.appends.Load() != 3 {
		t.Fatalf("empty checkpoint: %v, %d appends", err, l.appends.Load())
	}
}

// TestLoggedFileBounds: a write past the file's end fails at once, as the
// data file's own write would, instead of surfacing at the checkpoint;
// Truncate and Close drop the parked pages.
func TestLoggedFileBounds(t *testing.T) {
	m := NewManager(storage.NewMemLog())
	f := newFile(t, m, "r", 1)
	if err := f.WritePage(1, testPage(1)); err == nil {
		t.Fatalf("write past the end parked")
	}
	park(t, f, 0, testPage(1))
	if err := f.Shrink(0); err != nil {
		t.Fatal(err)
	}
	if f.n != 0 || len(f.unlogged) != 0 {
		t.Fatalf("truncate kept parked pages")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit([]string{"r"}, nil); err == nil {
		t.Fatalf("commit of a closed file succeeded")
	}
}

// TestLoggedFileShrink: shrinking a file drops the pages parked past its
// new end, so the next commit logs only the pages below it, and a page
// allocated again is not served from an old parked image.
func TestLoggedFileShrink(t *testing.T) {
	m := NewManager(storage.NewMemLog())
	f := newFile(t, m, "r", 2)
	park(t, f, 1, testPage(1))
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	park(t, f, 2, testPage(2))
	if err := f.Shrink(2); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 2 || f.n != 1 || !slices.Equal(f.unlogged, []page.ID{1}) {
		t.Fatalf("after Shrink(2): %d pages, %d parked, unlogged %v; want 2, 1, [1]", f.NumPages(), f.n, f.unlogged)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	var got page.Page
	if err := f.ReadPage(2, &got); err != nil || got != (page.Page{}) {
		t.Fatalf("page 2 allocated again: %v, zeroed %v", err, got == (page.Page{}))
	}
	if err := f.Shrink(-1); err == nil {
		t.Fatal("Shrink(-1) succeeded")
	}
}

// TestLoggedFileConcurrentReaders has several goroutines park and read
// pages of one file at once — readers sharing a relation evict dirty
// frames while others read — and requires every read to see a whole page,
// either the file's or the last one parked.
func TestLoggedFileConcurrentReaders(t *testing.T) {
	const workers, rounds = 4, 200
	f := newFile(t, NewManager(storage.NewMemLog()), "r", workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := make([]page.Page, workers)
			for k := 0; k < rounds; k++ {
				if err := f.WritePage(page.ID(g), testPage(byte(k))); err != nil {
					errs <- err
					return
				}
				if err := f.ReadPages(0, run); err != nil {
					errs <- err
					return
				}
				for id := range run {
					seed := run[id][page.HeaderSize] - page.HeaderSize%31
					if p := &run[id]; *p != (page.Page{}) && *p != *testPage(seed) {
						errs <- fmt.Errorf("page %d read torn", id)
						return
					}
				}
			}
			var got page.Page
			if err := f.ReadPage(page.ID(g), &got); err != nil || got != *testPage(byte(rounds - 1)) {
				errs <- fmt.Errorf("page %d: %v, want its last parked image", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
