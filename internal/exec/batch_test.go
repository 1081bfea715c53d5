package exec_test

import (
	"encoding/binary"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/faultfs"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// The tests below pin the batch-cursor contract at its boundaries: empty
// sources, capacity 1, last partial batches, batches that filter to
// nothing, a nested loop pausing mid-join on a full output batch, and
// iterator errors surfacing mid-batch.

func testHeap(t *testing.T, n int) *heapfile.File {
	t.Helper()
	hf := heapfile.New(buffer.New("bt_heap", storage.NewMem()), benchWidth)
	for i := 0; i < n; i++ {
		if _, err := hf.Insert(benchTuple(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	return hf
}

func testAtt(hf *heapfile.File) *exec.Attribution {
	return exec.NewAttribution(statsSumT(hf.Buffer()))
}

func statsSumT(bufs ...*buffer.Buffered) func() buffer.Stats {
	return func() buffer.Stats {
		var s buffer.Stats
		for _, bf := range bufs {
			s = s.Add(bf.Stats())
		}
		return s
	}
}

func scanOp(hf *heapfile.File, att *exec.Attribution, node *plan.Node, bind func(rid page.RID, tup []byte) (bool, error)) *exec.BatchScan {
	if bind == nil {
		bind = func(page.RID, []byte) (bool, error) { return true, nil }
	}
	return &exec.BatchScan{
		Node:  node,
		Att:   att,
		Start: func() (am.Iterator, error) { return hf.Scan(), nil },
		Bind:  bind,
	}
}

// drainBatches opens op, pulls every batch through b, and returns the
// per-call selected row counts.
func drainBatches(t *testing.T, op exec.BatchOperator, b *exec.Batch) []int {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		ok, err := op.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() == 0 {
			t.Fatal("NextBatch returned ok with zero selected rows")
		}
		sizes = append(sizes, b.Len())
	}
	// The contract: after exhaustion, NextBatch keeps returning false.
	if ok, err := op.NextBatch(b); err != nil || ok {
		t.Fatalf("NextBatch after exhaustion = (%v, %v), want (false, nil)", ok, err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

func TestBatchResetClearsSlots(t *testing.T) {
	b := exec.NewBatch(2, 4)
	row := b.AddRow()
	row[0], row[1] = []byte{1}, []byte{2}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", b.Len())
	}
	if got := b.AddRow(); got[0] != nil || got[1] != nil {
		t.Fatalf("row slots survived Reset: %v", got)
	}
}

func TestBatchAddMerged(t *testing.T) {
	b := exec.NewBatch(3, 4)
	outer := [][]byte{{1}, nil, {3}}
	inner := [][]byte{nil, {2}, nil}
	b.AddMerged(outer, inner)
	row := b.Row(b.Sel()[0])
	if row[0] == nil || row[1] == nil || row[2] == nil {
		t.Fatalf("merged row has unbound slots: %v", row)
	}
	if row[0][0] != 1 || row[1][0] != 2 || row[2][0] != 3 {
		t.Fatalf("merged row = %v, want slots 1,2,3", row)
	}
	// Inner slots override outer slots when both are bound.
	b.AddMerged([][]byte{{9}, nil, nil}, [][]byte{{7}, {2}, {3}})
	row = b.Row(b.Sel()[1])
	if row[0][0] != 7 {
		t.Fatalf("inner slot did not override outer: %v", row)
	}
}

func TestBatchKeepCompacts(t *testing.T) {
	b := exec.NewBatch(1, 8)
	for i := 0; i < 6; i++ {
		b.AddRow()[0] = []byte{byte(i)}
	}
	if err := b.Keep(func(i int) (bool, error) { return b.Row(i)[0][0]%2 == 0, nil }); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len after Keep = %d, want 3", b.Len())
	}
	for k, i := range b.Sel() {
		if got := b.Row(i)[0][0]; got != byte(2*k) {
			t.Fatalf("sel[%d] -> row value %d, want %d", k, got, 2*k)
		}
	}
}

func TestBatchScanEmptySource(t *testing.T) {
	hf := testHeap(t, 0)
	att := testAtt(hf)
	op := scanOp(hf, att, &plan.Node{Op: plan.OpSeqScan}, nil)
	if sizes := drainBatches(t, op, exec.NewBatch(1, 4)); len(sizes) != 0 {
		t.Fatalf("empty source produced batches: %v", sizes)
	}
}

func TestBatchScanLastPartialBatch(t *testing.T) {
	hf := testHeap(t, 10)
	att := testAtt(hf)
	op := scanOp(hf, att, &plan.Node{Op: plan.OpSeqScan}, nil)
	sizes := drainBatches(t, op, exec.NewBatch(1, 4))
	want := []int{4, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes = %v, want %v", sizes, want)
		}
	}
}

func TestBatchScanCapacityOne(t *testing.T) {
	hf := testHeap(t, 5)
	att := testAtt(hf)
	op := scanOp(hf, att, &plan.Node{Op: plan.OpSeqScan}, nil)
	sizes := drainBatches(t, op, exec.NewBatch(1, 1))
	if len(sizes) != 5 {
		t.Fatalf("got %d batches, want 5 (capacity 1)", len(sizes))
	}
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("batch sizes = %v, want all 1", sizes)
		}
	}
}

func TestBatchScanAllFiltered(t *testing.T) {
	hf := testHeap(t, 64)
	att := testAtt(hf)
	node := &plan.Node{Op: plan.OpSeqScan}
	reject := func(page.RID, []byte) (bool, error) { return false, nil }
	op := scanOp(hf, att, node, reject)
	if sizes := drainBatches(t, op, exec.NewBatch(1, 8)); len(sizes) != 0 {
		t.Fatalf("fully filtered scan produced batches: %v", sizes)
	}
	if node.ActRows != 0 {
		t.Fatalf("ActRows = %d, want 0", node.ActRows)
	}
}

// TestBatchScanMatchesTupleScan runs the same restricted scan at capacity 1
// — tuple-at-a-time — and at capacity 7 and requires identical qualifying
// rows and identical per-operator page attribution.
func TestBatchScanMatchesTupleScan(t *testing.T) {
	hf := testHeap(t, 300)
	keep := func(_ page.RID, tup []byte) (bool, error) {
		return binary.LittleEndian.Uint32(tup)%3 == 0, nil
	}

	run := func(capacity int) (rows int64, io plan.IOStats) {
		if err := hf.Buffer().Invalidate(); err != nil {
			t.Fatal(err)
		}
		hf.Buffer().ResetStats()
		att := testAtt(hf)
		node := &plan.Node{Op: plan.OpSeqScan}
		for _, n := range drainBatches(t, scanOp(hf, att, node, keep), exec.NewBatch(1, capacity)) {
			rows += int64(n)
		}
		att.Finish(node)
		return rows, node.IO
	}

	tRows, tIO := run(1)
	bRows, bIO := run(7)
	if tRows != bRows {
		t.Fatalf("rows: capacity 1 = %d, capacity 7 = %d", tRows, bRows)
	}
	// Pages read and written must agree exactly. Hits need not: the wider
	// batch fetches each page once per block instead of once per tuple, so
	// the per-tuple re-fetches of a resident page (hits, never reads)
	// disappear.
	if tIO.Reads != bIO.Reads || tIO.Writes != bIO.Writes {
		t.Fatalf("attributed IO differs: capacity 1 = %+v, capacity 7 = %+v", tIO, bIO)
	}
	if bIO.Hits > tIO.Hits {
		t.Fatalf("capacity 7 hits %d exceed capacity 1 hits %d", bIO.Hits, tIO.Hits)
	}
}

// TestBatchNestedLoopPauseResume forces the join's output batch to fill
// mid-inner-scan: 6 outer rows x 5 inner rows with an output capacity of
// 4 pauses and resumes inside every outer row.
func TestBatchNestedLoopPauseResume(t *testing.T) {
	outerHeap := testHeap(t, 6)
	innerHeap := testHeap(t, 5)
	att := exec.NewAttribution(statsSumT(outerHeap.Buffer(), innerHeap.Buffer()))
	outerNode := &plan.Node{Op: plan.OpSeqScan}
	innerNode := &plan.Node{Op: plan.OpSeqScan}
	joinNode := &plan.Node{Op: plan.OpNestLoop}

	// Slot layout: 0 = outer, 1 = inner.
	outerScan := &exec.BatchScan{Node: outerNode, Att: att, Slot: 0,
		Start: func() (am.Iterator, error) { return outerHeap.Scan(), nil },
		Bind:  func(page.RID, []byte) (bool, error) { return true, nil },
	}
	innerScan := &exec.BatchScan{Node: innerNode, Att: att, Slot: 1,
		Start: func() (am.Iterator, error) { return innerHeap.Scan(), nil },
		Bind:  func(page.RID, []byte) (bool, error) { return true, nil },
	}
	join := &exec.BatchNestedLoop{
		Node: joinNode, Outer: outerScan, Inner: innerScan,
		Rebind:   func([][]byte) {},
		OuterBuf: exec.NewBatch(2, 3),
		InnerBuf: exec.NewBatch(2, 2),
	}

	out := exec.NewBatch(2, 4)
	seen := map[[2]uint32]bool{}
	if err := join.Open(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		ok, err := join.NextBatch(out)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, i := range out.Sel() {
			row := out.Row(i)
			if row[0] == nil || row[1] == nil {
				t.Fatalf("join row with unbound slot: %v", row)
			}
			k := [2]uint32{binary.LittleEndian.Uint32(row[0]), binary.LittleEndian.Uint32(row[1])}
			if seen[k] {
				t.Fatalf("duplicate join row %v", k)
			}
			seen[k] = true
			total++
		}
	}
	if err := join.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 30 {
		t.Fatalf("join produced %d rows, want 30", total)
	}
	if joinNode.ActRows != 30 {
		t.Fatalf("join ActRows = %d, want 30", joinNode.ActRows)
	}
}

// TestBatchFilterSkipsEmptyBatches layers a filter that rejects the first
// 200 rows: the filter must keep pulling past fully rejected batches and
// still surface the surviving tail.
func TestBatchFilterSkipsEmptyBatches(t *testing.T) {
	hf := testHeap(t, 220)
	att := testAtt(hf)
	scanNode := &plan.Node{Op: plan.OpSeqScan}
	filtNode := &plan.Node{Op: plan.OpFilter}
	var cur uint32
	scan := scanOp(hf, att, scanNode, func(_ page.RID, tup []byte) (bool, error) {
		cur = binary.LittleEndian.Uint32(tup)
		return true, nil
	})
	filt := &exec.BatchFilter{
		Node:  filtNode,
		Child: scan,
		Rebind: func(row [][]byte) {
			cur = binary.LittleEndian.Uint32(row[0])
		},
		Pred: func() (bool, error) { return cur >= 200, nil },
	}
	total := 0
	for _, n := range drainBatches(t, filt, exec.NewBatch(1, 16)) {
		total += n
	}
	if total != 20 {
		t.Fatalf("filter passed %d rows, want 20", total)
	}
	if filtNode.ActRows != 20 {
		t.Fatalf("filter ActRows = %d, want 20", filtNode.ActRows)
	}
}

// TestBatchScanIteratorError injects a read fault mid-scan and requires
// NextBatch to surface it — not swallow it or end the scan early — while
// Close still succeeds (as the heapfile iterator error-path tests require
// of the iterator itself).
func TestBatchScanIteratorError(t *testing.T) {
	mem := storage.NewMem()
	buf := buffer.New("bt_err", mem)
	hf := heapfile.New(buf, benchWidth)
	for i := 0; i < 200; i++ {
		if _, err := hf.Insert(benchTuple(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}

	sched := faultfs.MustParse("bt_err:read@2")
	fbuf := buffer.New("bt_err", sched.Wrap("bt_err", mem))
	fhf := heapfile.New(fbuf, benchWidth)
	att := exec.NewAttribution(statsSumT(fbuf))
	op := scanOp(fhf, att, &plan.Node{Op: plan.OpSeqScan}, nil)

	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := exec.NewBatch(1, 8)
	sawErr := false
	for i := 0; i < 1000; i++ {
		ok, err := op.NextBatch(b)
		if err != nil {
			if !faultfs.IsInjected(err) {
				t.Fatalf("NextBatch returned a non-injected error: %v", err)
			}
			sawErr = true
			break
		}
		if !ok {
			t.Fatal("batch scan ended without surfacing the injected read error")
		}
	}
	if !sawErr {
		t.Fatal("injected error never surfaced")
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close after an iterator error: %v", err)
	}
}
