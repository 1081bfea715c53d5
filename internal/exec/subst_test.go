package exec_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// The tests below hold the substitution join to the nested loop it
// replaces: a BatchNestedLoop whose inner BatchScan re-opens a keyed probe
// per outer row. The join probing on the calling goroutine through View
// and the join probing on several goroutines through runs must both emit
// the reference's rows in its order, end in its error, charge its pages,
// hits included, to the same nodes, and leave no goroutine behind.

// substKeys is the inner relation's key count; outer keys run past it, so
// some probes find nothing.
const substKeys = 96

// innerTuple is version v of key k: the key at 0, the version at 4.
func innerTuple(k, v int) []byte {
	tup := make([]byte, benchWidth)
	binary.LittleEndian.PutUint32(tup, uint32(k))
	binary.LittleEndian.PutUint32(tup[4:], uint32(v))
	return tup
}

// substInner is a hash file of substKeys keys, eight versions each, over
// buckets primary pages: over three, every probe walks a chain of several
// pages; over forty, most chains are one page.
func substInner(t *testing.T, buckets int) *hashfile.File {
	t.Helper()
	f, err := hashfile.Build(buffer.New("subst_inner", storage.NewMem()),
		hashfile.Meta{Width: benchWidth, Key: benchKey, Primary: buckets})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		for k := 0; k < substKeys; k++ {
			if _, err := f.Insert(innerTuple(k, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Buffer().Flush(); err != nil {
		t.Fatal(err)
	}
	return f
}

// substOuter is a heap of n rows whose keys cycle through 0..substKeys+9;
// every third row repeats the key of the row before, so on a one-page
// chain its probe's first view is a hit.
func substOuter(t *testing.T, n int) *heapfile.File {
	t.Helper()
	hf := heapfile.New(buffer.New("subst_outer", storage.NewMem()), benchWidth)
	for i := 0; i < n; i++ {
		k := i * 7 % (substKeys + 10)
		if i%3 == 2 {
			k = (i - 1) * 7 % (substKeys + 10)
		}
		if _, err := hf.Insert(benchTuple(int32(k))); err != nil {
			t.Fatal(err)
		}
	}
	return hf
}

// substCase is one configuration of a join run.
type substCase struct {
	outerCap, outCap int
	residual         bool  // the inner leaf has a residual
	failKey          int64 // the key that fails to compute; -1 for none
}

// substOutcome is what a join run shows.
type substOutcome struct {
	rows                  []string
	err                   error
	outerIO, innerIO      plan.IOStats
	innerStats            buffer.Stats
	innerRows, joinedRows int64
}

// substMode picks the join under test.
type substMode int

const (
	nestedLoop substMode = iota // the reference
	serial                      // BatchSubstJoin without runs
	parallel                    // BatchSubstJoin with runs
)

func runSubst(t *testing.T, outer *heapfile.File, inner *hashfile.File, c substCase, mode substMode) substOutcome {
	t.Helper()
	for _, bf := range []*buffer.Buffered{outer.Buffer(), inner.Buffer()} {
		if err := bf.Invalidate(); err != nil {
			t.Fatal(err)
		}
		bf.ResetStats()
	}
	att := exec.NewAttribution(statsSumT(outer.Buffer(), inner.Buffer()))
	outerNode := &plan.Node{Op: plan.OpSeqScan}
	innerNode := &plan.Node{Op: plan.OpSubstProbe}
	joinNode := &plan.Node{Op: plan.OpNestLoop}

	var cur []byte // the outer tuple Rebind installed
	rebind := func(row [][]byte) { cur = row[0] }
	key := func() (int64, error) {
		k := benchKey.Extract(cur)
		if k == c.failKey {
			return 0, fmt.Errorf("key of outer row %d fails", k)
		}
		return k, nil
	}
	ranges := []am.Range{{Key: am.Key{Offset: 4, Width: 4}, Lo: 1, Hi: 6}}
	qual := func(int) func(page.RID, []byte) (bool, error) {
		if !c.residual {
			return nil
		}
		return func(_ page.RID, tup []byte) (bool, error) {
			return binary.LittleEndian.Uint32(tup[4:])%3 != 0, nil
		}
	}
	outerScan := &exec.BatchScan{Node: outerNode, Att: att, Slot: 0,
		Start: func() (am.Iterator, error) { return outer.Scan(), nil }}
	var join exec.BatchOperator
	if mode == nestedLoop {
		join = &exec.BatchNestedLoop{Node: joinNode, Outer: outerScan, Rebind: rebind,
			Inner: &exec.BatchScan{Node: innerNode, Att: att, Slot: 1, Ranges: ranges, Bind: qual(0),
				Start: func() (am.Iterator, error) {
					k, err := key()
					if err != nil {
						return nil, err
					}
					return inner.Probe(k), nil
				}},
			OuterBuf: exec.NewBatch(2, c.outerCap), InnerBuf: exec.NewBatch(2, c.outerCap)}
	} else {
		arenas := map[int]*am.Arena{}
		join = &exec.BatchSubstJoin{Node: joinNode, Inner: innerNode, Att: att, Outer: outerScan,
			OuterBuf: exec.NewBatch(2, c.outerCap), Rebind: rebind, Slot: 1, Cap: c.outerCap,
			Key: key,
			Run: func() *buffer.Run {
				if mode == parallel {
					return inner.Buffer().Run()
				}
				return nil
			},
			Prober: func() func(int64, *buffer.Run) am.Iterator {
				aim := inner.RunProber()
				return func(k int64, r *buffer.Run) am.Iterator {
					if r != nil {
						return aim(r, k)
					}
					return inner.Probe(k)
				}
			},
			Block: func(w int) am.Block {
				if arenas[w] != nil {
					t.Errorf("worker %d's block asked for twice", w)
				}
				arenas[w] = new(am.Arena)
				return am.Block{Ranges: ranges, Qual: qual(w), Arena: arenas[w]}
			},
		}
	}

	var out substOutcome
	b := exec.NewBatch(2, c.outCap)
	if err := join.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := join.NextBatch(b)
		if err != nil {
			out.err = err
			break
		}
		if !ok {
			break
		}
		for _, i := range b.Sel() {
			row := b.Row(i)
			out.rows = append(out.rows, fmt.Sprintf("%d:%d/%d", benchKey.Extract(row[0]),
				benchKey.Extract(row[1]), binary.LittleEndian.Uint32(row[1][4:])))
		}
	}
	if err := join.Close(); err != nil {
		t.Fatal(err)
	}
	att.Finish(joinNode)
	out.outerIO, out.innerIO = outerNode.IO, innerNode.IO
	out.innerStats = inner.Buffer().Stats()
	out.innerRows, out.joinedRows = innerNode.ActRows, joinNode.ActRows
	return out
}

// checkSame requires got to be want, error text included.
func checkSame(t *testing.T, what string, got, want substOutcome) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, want %v", what, got.err, want.err)
	}
	if fmt.Sprint(got.rows) != fmt.Sprint(want.rows) {
		t.Fatalf("%s: %d rows %v\nwant %d rows %v", what, len(got.rows), got.rows, len(want.rows), want.rows)
	}
	if got.outerIO != want.outerIO || got.innerIO != want.innerIO || got.innerStats != want.innerStats {
		t.Fatalf("%s: outer %+v inner %+v stats %+v, want outer %+v inner %+v stats %+v", what,
			got.outerIO, got.innerIO, got.innerStats, want.outerIO, want.innerIO, want.innerStats)
	}
	if want.err == nil && (got.innerRows != want.innerRows || got.joinedRows != want.joinedRows) {
		t.Fatalf("%s: rows inner %d joined %d, want %d and %d", what,
			got.innerRows, got.joinedRows, want.innerRows, want.joinedRows)
	}
}

// goroutinesAfter is the goroutine count once it has fallen to base, or
// after a second. A worker has done its work before NextBatch returns, but
// its goroutine may not have finished exiting.
func goroutinesAfter(base int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestSubstJoinMatchesNestedLoop runs the substitution join over inner
// chains of many pages and of one, and outer sides of 0, 1, 300 and 700 rows, in outer batches of 1, 7 and 256 rows
// (the inner walks are paced by the same capacity), into output batches
// of 1, 5 and 256 rows, with and without an inner residual, and with a key
// that fails in the middle of an outer batch. More goroutines than cores
// are asked for, so probes of one batch finish out of order.
func TestSubstJoinMatchesNestedLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, buckets := range []int{3, 40} {
		inner := substInner(t, buckets)
		for _, n := range []int{0, 1, 300, 700} {
			outer := substOuter(t, n)
			for _, c := range []substCase{
				{outerCap: 256, outCap: 256, failKey: -1},
				{outerCap: 256, outCap: 5, residual: true, failKey: -1},
				{outerCap: 1, outCap: 1, residual: true, failKey: -1},
				{outerCap: 7, outCap: 256, failKey: -1},
				{outerCap: 256, outCap: 5, failKey: 30}, // row 80: mid-batch at both capacities
				{outerCap: 7, outCap: 1, residual: true, failKey: 30},
			} {
				name := fmt.Sprintf("buckets=%d/n=%d/%+v", buckets, n, c)
				base := runtime.NumGoroutine()
				want := runSubst(t, outer, inner, c, nestedLoop)
				if n > 80 && c.failKey >= 0 && want.err == nil {
					t.Fatalf("%s: the reference did not fail", name)
				}
				checkSame(t, name+"/serial", runSubst(t, outer, inner, c, serial), want)
				checkSame(t, name+"/parallel", runSubst(t, outer, inner, c, parallel), want)
				if g := goroutinesAfter(base); g != base {
					t.Fatalf("%s: %d goroutines after the joins, %d before", name, g, base)
				}
			}
		}
	}
}

// TestSubstJoinLoopedChain loops one of the inner file's chains back on
// itself. A probe of that chain, made by whichever goroutine takes it,
// must end in am.Overrun when its row is reached, with every page before it
// charged as the reference charges it, and no goroutine left behind.
func TestSubstJoinLoopedChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, link := range []struct {
		name string
		to   page.ID
	}{{"self", 0}, {"back", 1}} {
		t.Run(link.name, func(t *testing.T) {
			inner := substInner(t, 3)
			buf := inner.Buffer()
			// Bucket 1's chain: primary page 1, then its overflow pages.
			id := page.ID(1)
			for {
				p, err := buf.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if p.Next() == page.Nil {
					break
				}
				id = p.Next()
			}
			to := id
			if link.name == "back" {
				to = 1
			}
			p, err := buf.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			p.SetNext(to)
			buf.MarkDirty()
			if err := buf.Flush(); err != nil {
				t.Fatal(err)
			}
			outer := substOuter(t, 500)
			for _, c := range []substCase{
				{outerCap: 256, outCap: 256, failKey: -1},
				{outerCap: 3, outCap: 2, residual: true, failKey: -1},
			} {
				base := runtime.NumGoroutine()
				want := runSubst(t, outer, inner, c, nestedLoop)
				if !errors.Is(want.err, page.ErrCorrupt) {
					t.Fatalf("reference over a looped chain: %v, want page.ErrCorrupt", want.err)
				}
				checkSame(t, "serial", runSubst(t, outer, inner, c, serial), want)
				checkSame(t, "parallel", runSubst(t, outer, inner, c, parallel), want)
				if g := goroutinesAfter(base); g != base {
					t.Fatalf("%d goroutines after the joins, %d before", g, base)
				}
			}
		})
	}
}
