package exec_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// The tests below hold the scan that walks its file in morsels to the
// serial walk through Start's iterator: the same rows in the same
// batches, the same error at the same view, the same pages charged to
// the node by every NextBatch, hits included, the frame left on the same
// page, and no goroutine left behind once the scan is closed.

// scanFile is a file under test: its buffer, its serial scan and its parts.
type scanFile struct {
	name  string
	buf   *buffer.Buffered
	scan  func() am.Iterator
	parts func() am.Parts
}

// scanFiles builds a hash file of 40 buckets and an ISAM file of 43 data
// pages, each heading an overflow chain, and a heap of 300 pages, more
// than one round of morsels at two goroutines; all have dead slots, some
// of them last on their page.
func scanFiles(t *testing.T) []scanFile {
	t.Helper()
	hf, err := hashfile.Build(buffer.New("h", storage.NewMem()),
		hashfile.Meta{Width: benchWidth, Key: benchKey, Primary: 40})
	if err != nil {
		t.Fatal(err)
	}
	var sorted [][]byte
	for k := 0; k < 2400; k++ {
		sorted = append(sorted, innerTuple(k, 0))
	}
	isf, err := isam.Build(buffer.New("i", storage.NewMem()), benchWidth, benchKey, 100, sorted)
	if err != nil {
		t.Fatal(err)
	}
	heap := heapfile.New(buffer.New("x", storage.NewMem()), benchWidth)
	for v := 0; v < 4; v++ {
		for k := 0; k < 560; k++ {
			tup := innerTuple(k, v)
			if _, err := hf.Insert(tup); err != nil {
				t.Fatal(err)
			}
			if v > 0 {
				if _, err := isf.Insert(innerTuple(k*2400/560, v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < 4200; k++ {
			if _, err := heap.Insert(innerTuple(k, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	files := []scanFile{
		{"hash", hf.Buffer(), hf.Scan, hf.Parts},
		{"isam", isf.Buffer(), isf.Scan, isf.Parts},
		{"heap", heap.Buffer(), heap.Scan, heap.Parts},
	}
	for _, f := range files {
		del := f.buf
		var dead []page.RID
		if err := am.Each(f.scan(), func(rid page.RID, tup []byte) error {
			if k := benchKey.Extract(tup); k%5 == 0 || k%7 == 3 {
				dead = append(dead, rid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, rid := range dead {
			p, err := del.Fetch(rid.Page)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Delete(int(rid.Slot)); err != nil {
				t.Fatal(err)
			}
			del.MarkDirty()
		}
		if err := del.Flush(); err != nil {
			t.Fatal(err)
		}
		if parts := f.parts(); parts.Units < 33 {
			t.Fatalf("%s: %d units, too few for three morsels", f.name, parts.Units)
		}
	}
	return files
}

// scanCase is one configuration of a scan run.
type scanCase struct {
	cap      int
	ranges   bool    // the leaf has a range on the version
	residual bool    // the leaf has a residual keeping two versions in three
	fail     [2]int  // the residual fails at this key and version; key -1 for none
	then     page.ID // the page viewed first after the scan
	// slow: the consumer sleeps between NextBatch calls, about once per
	// 256 rows, so the helpers have walked the morsels ahead of the
	// replay, as far as the window lets them, before it reaches them.
	slow bool
}

// scanOutcome is what a scan run shows.
type scanOutcome struct {
	batches []string
	marks   []string // the node's and the buffer's counts after each NextBatch
	err     string
	io      plan.IOStats
	stats   buffer.Stats
	rows    int64
	next    buffer.Stats // what a view of page then and a serial scan after it count
	runs    int          // runs the scan took
}

func runScan(t *testing.T, f scanFile, c scanCase, parallel bool) scanOutcome {
	t.Helper()
	if err := f.buf.Invalidate(); err != nil {
		t.Fatal(err)
	}
	f.buf.ResetStats()
	att := exec.NewAttribution(statsSumT(f.buf))
	node := &plan.Node{Op: plan.OpSeqScan}
	var ranges []am.Range
	if c.ranges {
		ranges = []am.Range{{Key: am.Key{Offset: 4, Width: 4}, Lo: 1, Hi: 2}}
	}
	qual := func(int) func(page.RID, []byte) (bool, error) {
		if !c.residual && c.fail[0] < 0 {
			return nil
		}
		return func(_ page.RID, tup []byte) (bool, error) {
			k, v := int(benchKey.Extract(tup)), int(binary.LittleEndian.Uint32(tup[4:]))
			if k == c.fail[0] && v == c.fail[1] {
				return false, fmt.Errorf("residual fails at %d/%d", k, v)
			}
			return !c.residual || (k+v)%3 != 0, nil
		}
	}
	var out scanOutcome
	s := &exec.BatchScan{Node: node, Att: att, Slot: 0, Ranges: ranges, Bind: qual(0),
		Start: func() (am.Iterator, error) { return f.scan(), nil }}
	if parallel {
		s.Parts = f.parts
		s.Run = func() *buffer.Run {
			out.runs++
			return f.buf.Run()
		}
		s.Block = func(w int) am.Block { return am.Block{Ranges: ranges, Qual: qual(w), Arena: new(am.Arena)} }
	}
	b := exec.NewBatch(1, c.cap)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := s.NextBatch(b)
		out.marks = append(out.marks, fmt.Sprintf("%+v %+v", node.IO, f.buf.Stats()))
		if err != nil {
			out.err = err.Error()
			break
		}
		if !ok {
			break
		}
		if c.slow && len(out.batches)%max(1, 256/c.cap) == 0 {
			time.Sleep(300 * time.Microsecond)
		}
		var rows []string
		for _, i := range b.Sel() {
			tup := b.Row(i)[0]
			rows = append(rows, fmt.Sprintf("%d/%d", benchKey.Extract(tup), binary.LittleEndian.Uint32(tup[4:])))
		}
		out.batches = append(out.batches, strings.Join(rows, " "))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	att.Finish(node)
	out.io, out.stats, out.rows = node.IO, f.buf.Stats(), node.ActRows
	if _, err := f.buf.View(c.then); err != nil {
		t.Fatal(err)
	}
	if err := am.Each(f.scan(), func(page.RID, []byte) error { return nil }); err != nil && out.err == "" {
		t.Fatal(err)
	}
	out.next = f.buf.Stats().Sub(out.stats)
	return out
}

// checkScan requires got to be want.
func checkScan(t *testing.T, what string, got, want scanOutcome) {
	t.Helper()
	if got.runs == 0 {
		t.Fatalf("%s: the scan took no run", what)
	}
	if got.err != want.err {
		t.Fatalf("%s: error %q, want %q", what, got.err, want.err)
	}
	if len(got.batches) != len(want.batches) {
		t.Fatalf("%s: %d batches, want %d", what, len(got.batches), len(want.batches))
	}
	for i := range got.batches {
		if got.batches[i] != want.batches[i] {
			t.Fatalf("%s: batch %d\n got %s\nwant %s", what, i, got.batches[i], want.batches[i])
		}
	}
	for i := range got.marks {
		if got.marks[i] != want.marks[i] {
			t.Fatalf("%s: after NextBatch %d\n got %s\nwant %s", what, i, got.marks[i], want.marks[i])
		}
	}
	if got.io != want.io || got.stats != want.stats || got.rows != want.rows || got.next != want.next {
		t.Fatalf("%s: io %+v stats %+v rows %d next %+v\nwant io %+v stats %+v rows %d next %+v", what,
			got.io, got.stats, got.rows, got.next, want.io, want.stats, want.rows, want.next)
	}
}

// unitTuples lists each unit's candidates, key and version, in scan order.
func unitTuples(t *testing.T, f scanFile) [][][2]int {
	t.Helper()
	parts := f.parts()
	out := make([][][2]int, parts.Units)
	for u := range out {
		if err := am.Each(am.NewWalk(parts.Walk(f.buf, u, u+1), am.Match{}), func(_ page.RID, tup []byte) error {
			out[u] = append(out[u], [2]int{int(benchKey.Extract(tup)), int(binary.LittleEndian.Uint32(tup[4:]))})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBatchScanMatchesSerial scans hash, ISAM and heap files in batches of
// 1, 2, 7 and 256 rows, with and without a range and a residual, and with a
// residual that fails at the first candidate of the second morsel, in its
// middle, and at its last candidate. At two goroutines a round of morsels
// is shorter than the heap, so several rounds run. A slow consumer lets
// the helpers finish the morsels ahead of the replay, the last one
// included, where a residual fails in one case: the replay must still
// charge each NextBatch what the serial walk charges.
func TestBatchScanMatchesSerial(t *testing.T) {
	for _, procs := range []int{2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, f := range scanFiles(t) {
			units := unitTuples(t, f)
			first, mid, last := units[16][0], units[24][len(units[24])/2], units[31][len(units[31])-1]
			// In the file's last morsel: in the second round on the heap at
			// two goroutines.
			ahead := units[len(units)-2][0]
			for _, c := range []scanCase{
				{cap: 256, fail: [2]int{-1}},
				{cap: 7, ranges: true, fail: [2]int{-1}},
				{cap: 2, residual: true, fail: [2]int{-1}},
				{cap: 1, ranges: true, residual: true, fail: [2]int{-1}},
				{cap: 256, fail: first},
				{cap: 7, fail: mid},
				{cap: 1, residual: true, fail: last},
				{cap: 2, fail: last},
				{cap: 256, residual: true, fail: [2]int{-1}, slow: true},
				{cap: 7, ranges: true, fail: [2]int{-1}, slow: true},
				{cap: 1, fail: [2]int{-1}, slow: true},
				{cap: 7, fail: ahead, slow: true},
			} {
				name := fmt.Sprintf("procs=%d/%s/%+v", procs, f.name, c)
				base := runtime.NumGoroutine()
				want := runScan(t, f, c, false)
				if c.fail[0] >= 0 && want.err == "" {
					t.Fatalf("%s: the serial scan did not fail", name)
				}
				checkScan(t, name, runScan(t, f, c, true), want)
				if g := goroutinesAfter(base); g > base {
					t.Fatalf("%s: %d goroutines after the scan, %d before", name, g, base)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBatchScanBrokenChain links the last page of one of the hash file's
// chains back to itself, back to its bucket, and past the end of the file.
// The scan must fail as the serial one does: with am.Overrun once it has
// visited as many pages as the file holds, or with the failed read.
func TestBatchScanBrokenChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, link := range []string{"self", "bucket", "past"} {
		t.Run(link, func(t *testing.T) {
			f := scanFiles(t)[0]
			id := page.ID(20)
			for {
				p, err := f.buf.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if p.Next() == page.Nil {
					break
				}
				id = p.Next()
			}
			to := map[string]page.ID{"self": id, "bucket": 20, "past": 1 << 20}[link]
			p, err := f.buf.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			p.SetNext(to)
			f.buf.MarkDirty()
			if err := f.buf.Flush(); err != nil {
				t.Fatal(err)
			}
			// The next statement starts on the page viewed last before
			// the broken link.
			for _, c := range []scanCase{
				{cap: 256, fail: [2]int{-1}, then: id},
				{cap: 3, residual: true, fail: [2]int{-1}, then: id},
			} {
				base := runtime.NumGoroutine()
				want := runScan(t, f, c, false)
				if want.err == "" {
					t.Fatal("the serial scan did not fail")
				}
				checkScan(t, fmt.Sprint(c), runScan(t, f, c, true), want)
				if g := goroutinesAfter(base); g > base {
					t.Fatalf("%d goroutines after the scan, %d before", g, base)
				}
			}
		})
	}
}
