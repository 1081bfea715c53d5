package exec_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// The micro-benchmarks below exercise the executor's hot path — the batch
// pull loop plus the per-operator attribution brackets — over the
// three operator shapes the twelve paper queries reduce to: a
// single-variable scan, a tuple-substitution join, and a temporal filter.
// Alongside timings they record the deterministic work per operation
// (pages read, pages written, rows produced); TestMain persists those to
// BENCH_exec.json so runs can be diffed without re-running Go benchmarks.

const benchWidth = 16 // key i4 at 0, payload at 4, "from" time i4 at 8

var benchKey = am.Key{Offset: 0, Width: 4}

type benchMetrics struct {
	PagesIn  int64 `json:"pages_in"`
	PagesOut int64 `json:"pages_out"`
	Rows     int64 `json:"rows"`
}

var (
	benchMu      sync.Mutex
	benchResults = map[string]benchMetrics{}
)

func record(b *testing.B, name string, m benchMetrics) {
	b.Helper()
	b.ReportMetric(float64(m.PagesIn), "pagesIn/op")
	b.ReportMetric(float64(m.Rows), "rows/op")
	benchMu.Lock()
	benchResults[name] = m
	benchMu.Unlock()
}

// TestMain persists the deterministic per-operation work of every
// benchmark that ran. The file is only written when benchmarks executed
// (plain `go test` leaves no artifact behind).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && len(benchResults) > 0 {
		names := make([]string, 0, len(benchResults))
		for n := range benchResults {
			names = append(names, n)
		}
		sort.Strings(names)
		out := make(map[string]benchMetrics, len(benchResults))
		for _, n := range names {
			out[n] = benchResults[n]
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_exec.json", append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing BENCH_exec.json:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func benchTuple(key int32) []byte {
	tup := make([]byte, benchWidth)
	binary.LittleEndian.PutUint32(tup, uint32(key))
	binary.LittleEndian.PutUint32(tup[4:], uint32(key*3))
	binary.LittleEndian.PutUint32(tup[8:], uint32(key*7%100)) // "from" time
	return tup
}

func buildHeap(b *testing.B, n int) *heapfile.File {
	b.Helper()
	hf := heapfile.New(buffer.New("bench_heap", storage.NewMem()), benchWidth)
	for i := 0; i < n; i++ {
		if _, err := hf.Insert(benchTuple(int32(i))); err != nil {
			b.Fatal(err)
		}
	}
	return hf
}

func buildHash(b *testing.B, keys, versions int) *hashfile.File {
	b.Helper()
	meta := hashfile.Meta{
		Width:   benchWidth,
		Key:     benchKey,
		Primary: hashfile.PrimaryPages(keys*versions, benchWidth, 100),
	}
	f, err := hashfile.Build(buffer.New("bench_hash", storage.NewMem()), meta)
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < versions; v++ {
		for k := 0; k < keys; k++ {
			if _, err := f.Insert(benchTuple(int32(k))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return f
}

func resetBuffers(b *testing.B, bufs ...*buffer.Buffered) {
	b.Helper()
	for _, bf := range bufs {
		if err := bf.Invalidate(); err != nil {
			b.Fatal(err)
		}
		bf.ResetStats()
	}
}

func statsSum(bufs ...*buffer.Buffered) func() buffer.Stats {
	return func() buffer.Stats {
		var s buffer.Stats
		for _, bf := range bufs {
			s = s.Add(bf.Stats())
		}
		return s
	}
}

// BenchmarkSingleVarScan drives a cold sequential scan — the executor's
// simplest pipeline: BatchScan leaf feeding a counting BatchProject root.
func BenchmarkSingleVarScan(b *testing.B) {
	hf := buildHeap(b, 1024)
	var m benchMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetBuffers(b, hf.Buffer())
		b.StartTimer()

		att := exec.NewAttribution(statsSum(hf.Buffer()))
		leaf := &plan.Node{Op: plan.OpSeqScan, Var: "s"}
		root := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{leaf}}
		var rows int64
		op := &exec.BatchProject{
			Node: root,
			Child: &exec.BatchScan{
				Node:  leaf,
				Att:   att,
				Start: func() (am.Iterator, error) { return hf.Scan(), nil },
				Bind:  func(page.RID, []byte) (bool, error) { return true, nil },
			},
			Rebind: func([][]byte) {},
			Emit:   func() error { rows++; return nil },
		}
		if err := exec.RunBatches(op, exec.NewBatch(1, exec.DefaultBatchCap), nil); err != nil {
			b.Fatal(err)
		}
		att.Finish(root)
		io := leaf.IO
		io = io.Add(root.IO)
		m = benchMetrics{PagesIn: io.Reads, PagesOut: io.Writes, Rows: rows}
	}
	record(b, "SingleVarScan", m)
}

// BenchmarkSubstitutionJoin is the two-variable substitution shape: an
// outer sequential scan whose current key parameterizes a hashed probe of
// the inner relation on every outer binding, the probes of each outer
// batch run in parallel through buffer runs.
func BenchmarkSubstitutionJoin(b *testing.B) {
	outer := buildHeap(b, 256)
	inner := buildHash(b, 256, 2)
	var m benchMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetBuffers(b, outer.Buffer(), inner.Buffer())
		b.StartTimer()

		att := exec.NewAttribution(statsSum(outer.Buffer(), inner.Buffer()))
		outerLeaf := &plan.Node{Op: plan.OpSeqScan, Var: "o"}
		innerLeaf := &plan.Node{Op: plan.OpSubstProbe, Var: "i"}
		join := &plan.Node{Op: plan.OpNestLoop, Children: []*plan.Node{outerLeaf, innerLeaf}}
		root := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{join}}

		// Slot layout: 0 = outer, 1 = inner.
		var outerKey int64
		var rows int64
		op := &exec.BatchProject{
			Node: root,
			Child: &exec.BatchSubstJoin{
				Node:  join,
				Inner: innerLeaf,
				Att:   att,
				Outer: &exec.BatchScan{
					Node:  outerLeaf,
					Att:   att,
					Slot:  0,
					Start: func() (am.Iterator, error) { return outer.Scan(), nil },
					Bind:  func(page.RID, []byte) (bool, error) { return true, nil },
				},
				OuterBuf: exec.NewBatch(2, exec.DefaultBatchCap),
				Rebind:   func(row [][]byte) { outerKey = benchKey.Extract(row[0]) },
				Slot:     1,
				Cap:      exec.DefaultBatchCap,
				Key:      func() (int64, error) { return outerKey, nil },
				Run:      inner.Buffer().Run,
				Probe:    inner.Probe,
				Chains:   inner.Chains,
				Block:    func(int) am.Block { return am.Block{} },
			},
			Rebind: func([][]byte) {},
			Emit:   func() error { rows++; return nil },
		}
		if err := exec.RunBatches(op, exec.NewBatch(2, exec.DefaultBatchCap), nil); err != nil {
			b.Fatal(err)
		}
		att.Finish(root)
		io := outerLeaf.IO
		io = io.Add(innerLeaf.IO)
		io = io.Add(join.IO)
		io = io.Add(root.IO)
		m = benchMetrics{PagesIn: io.Reads, PagesOut: io.Writes, Rows: rows}
	}
	record(b, "SubstitutionJoin", m)
}

// BenchmarkTemporalFilter layers a residual predicate over the scan: the
// shape of a `when` clause that the leaf's own restrictions cannot
// absorb. The predicate qualifies tuples whose "from" time falls in the
// first half of the clock range, so roughly half the rows survive.
func BenchmarkTemporalFilter(b *testing.B) {
	hf := buildHeap(b, 1024)
	var m benchMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetBuffers(b, hf.Buffer())
		b.StartTimer()

		att := exec.NewAttribution(statsSum(hf.Buffer()))
		leaf := &plan.Node{Op: plan.OpSeqScan, Var: "t"}
		filt := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{leaf}}
		root := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{filt}}

		var from int64
		var rows int64
		rebind := func(row [][]byte) {
			from = int64(int32(binary.LittleEndian.Uint32(row[0][8:])))
		}
		op := &exec.BatchProject{
			Node: root,
			Child: &exec.BatchFilter{
				Node: filt,
				Child: &exec.BatchScan{
					Node: leaf,
					Att:  att,
					Start: func() (am.Iterator, error) {
						return hf.Scan(), nil
					},
					Bind: func(page.RID, []byte) (bool, error) { return true, nil },
				},
				Rebind: rebind,
				Pred:   func() (bool, error) { return from < 50, nil },
			},
			Rebind: rebind,
			Emit:   func() error { rows++; return nil },
		}
		if err := exec.RunBatches(op, exec.NewBatch(1, exec.DefaultBatchCap), nil); err != nil {
			b.Fatal(err)
		}
		att.Finish(root)
		io := leaf.IO
		io = io.Add(filt.IO)
		io = io.Add(root.IO)
		m = benchMetrics{PagesIn: io.Reads, PagesOut: io.Writes, Rows: rows}
	}
	record(b, "TemporalFilter", m)
}
