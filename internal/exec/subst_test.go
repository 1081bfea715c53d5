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
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// The tests below hold the substitution join to the nested loop it
// replaces: a BatchNestedLoop whose inner BatchScan re-opens a keyed probe
// per outer row. The join probing on the calling goroutine through View
// and the join probing on several goroutines through runs must both emit
// the reference's rows in its order, end in its error, charge its pages,
// hits included, to the same nodes, and leave no goroutine behind once
// closed; and the two joins must charge every NextBatch alike.

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
	// qualErr is the inner key whose version 3 the inner leaf's
	// qualification fails on; -1 for none.
	qualErr int64
	// slow: the consumer sleeps between NextBatch calls, about once per
	// 256 rows, so the helpers have run the outer batch's later probes
	// before their rows are reached.
	slow bool
	// again: the join is opened and run a second time, and in that
	// execution the inner buffer refuses the first run asked of it, so
	// the first outer batch probes without runs.
	again bool
}

// substOutcome is what a join run shows.
type substOutcome struct {
	rows                  []string
	marks                 []string // the nodes' and buffers' counts after each NextBatch
	err                   error
	outerIO, innerIO      plan.IOStats
	innerStats            buffer.Stats
	innerRows, joinedRows int64
	recorded, alone       int64 // the shared walks (BatchSubstJoin.Walks)
}

// keyedFile is an inner relation: a hash or ISAM file.
type keyedFile interface {
	Probe(key int64) am.Iterator
	Parts() am.Parts
	Buffer() *buffer.Buffered
}

// substMode picks the join under test.
type substMode int

const (
	nestedLoop substMode = iota // the reference
	serial                      // BatchSubstJoin without runs
	parallel                    // BatchSubstJoin with runs
)

func runSubst(t *testing.T, outer *heapfile.File, inner keyedFile, c substCase, mode substMode) substOutcome {
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
		if !c.residual && c.qualErr < 0 {
			return nil
		}
		return func(_ page.RID, tup []byte) (bool, error) {
			v := binary.LittleEndian.Uint32(tup[4:])
			if benchKey.Extract(tup) == c.qualErr && v == 3 {
				return false, fmt.Errorf("qual fails on key %d version %d", c.qualErr, v)
			}
			return !c.residual || v%3 != 0, nil
		}
	}
	outerScan := &exec.BatchScan{Node: outerNode, Att: att, Slot: 0,
		Start: func() (am.Iterator, error) { return outer.Scan(), nil }}
	var join exec.BatchOperator
	var subst *exec.BatchSubstJoin
	refuse := false // the next run asked of the inner buffer is refused
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
		subst = &exec.BatchSubstJoin{Node: joinNode, Inner: innerNode, Att: att, Outer: outerScan,
			OuterBuf: exec.NewBatch(2, c.outerCap), Rebind: rebind, Slot: 1, Cap: c.outerCap,
			Key: key,
			Run: func() *buffer.Run {
				if mode != parallel || refuse {
					refuse = false
					return nil
				}
				return inner.Buffer().Run()
			},
			Probe: inner.Probe,
			Parts: inner.Parts,
			Block: func(w int) am.Block {
				if arenas[w] != nil {
					t.Errorf("worker %d's block asked for twice", w)
				}
				arenas[w] = new(am.Arena)
				return am.Block{Ranges: ranges, Qual: qual(w), Arena: arenas[w]}
			},
		}
		join = subst
	}

	var out substOutcome
	b := exec.NewBatch(2, c.outCap)
	for exec := range 1 + btoi(c.again) {
		refuse = exec > 0
		if err := join.Open(); err != nil {
			t.Fatal(err)
		}
		for calls := 1; ; calls++ {
			ok, err := join.NextBatch(b)
			out.marks = append(out.marks, fmt.Sprintf("%+v %+v %+v %+v", outerNode.IO, innerNode.IO,
				outer.Buffer().Stats(), inner.Buffer().Stats()))
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
			if c.slow && (calls == 1 || calls%max(1, 256/c.outCap) == 0) {
				time.Sleep(300 * time.Microsecond)
			}
		}
		if err := join.Close(); err != nil {
			t.Fatal(err)
		}
	}
	att.Finish(joinNode)
	out.outerIO, out.innerIO = outerNode.IO, innerNode.IO
	out.innerStats = inner.Buffer().Stats()
	out.innerRows, out.joinedRows = innerNode.ActRows, joinNode.ActRows
	if subst != nil {
		out.recorded, out.alone = subst.Walks()
	}
	return out
}

// btoi is 1 for true, 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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

// checkMarks requires got to charge each NextBatch what want charges.
func checkMarks(t *testing.T, what string, got, want substOutcome) {
	t.Helper()
	if len(got.marks) != len(want.marks) {
		t.Fatalf("%s: %d NextBatch calls, want %d", what, len(got.marks), len(want.marks))
	}
	for i := range got.marks {
		if got.marks[i] != want.marks[i] {
			t.Fatalf("%s: after NextBatch %d\n got %s\nwant %s", what, i, got.marks[i], want.marks[i])
		}
	}
}

// goroutinesAfter is the goroutine count once it has fallen to base or
// below, or after a second. A worker has done its work before NextBatch
// returns, but its goroutine may not have finished exiting; a goroutine
// that was running before and exits meanwhile leaves fewer than base, and
// only more than base is a leak.
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
				{outerCap: 256, outCap: 256, failKey: -1, qualErr: -1},
				{outerCap: 256, outCap: 5, residual: true, failKey: -1, qualErr: -1},
				{outerCap: 1, outCap: 1, residual: true, failKey: -1, qualErr: -1},
				{outerCap: 7, outCap: 256, failKey: -1, qualErr: -1},
				{outerCap: 256, outCap: 5, failKey: 30, qualErr: -1}, // row 80: mid-batch at both capacities
				{outerCap: 7, outCap: 1, residual: true, failKey: 30, qualErr: -1},
				{outerCap: 256, outCap: 256, residual: true, failKey: -1, qualErr: -1, slow: true},
				{outerCap: 7, outCap: 5, failKey: -1, qualErr: -1, slow: true},
				{outerCap: 1, outCap: 1, failKey: -1, qualErr: -1, slow: true},
				{outerCap: 256, outCap: 5, failKey: 30, qualErr: -1, slow: true},
			} {
				name := fmt.Sprintf("buckets=%d/n=%d/%+v", buckets, n, c)
				base := runtime.NumGoroutine()
				want := runSubst(t, outer, inner, c, nestedLoop)
				if n > 80 && c.failKey >= 0 && want.err == nil {
					t.Fatalf("%s: the reference did not fail", name)
				}
				ser := runSubst(t, outer, inner, c, serial)
				checkSame(t, name+"/serial", ser, want)
				par := runSubst(t, outer, inner, c, parallel)
				checkSame(t, name+"/parallel", par, want)
				checkMarks(t, name+"/parallel", par, ser)
				if g := goroutinesAfter(base); g > base {
					t.Fatalf("%s: %d goroutines after the joins, %d before", name, g, base)
				}
			}
		}
	}
}

// TestSubstJoinLoopedChain loops one of the inner file's chains back on
// itself. A probe of that chain, made by whichever goroutine takes it,
// must end in am.Overrun when its row is reached, with every page before it
// charged as the reference charges it, and no goroutine left behind. On
// the inner file of forty buckets, the looped chain is the one whose
// first outer row comes latest in the first outer batch, and a slow
// consumer sleeps after the first output rows: a helper reaches the
// looped probe while the calling goroutine is away.
func TestSubstJoinLoopedChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	outer := substOuter(t, 500)
	for _, link := range []struct {
		name    string
		buckets int
		back    bool // link the chain's last page back to its bucket, else to itself
	}{{"self", 3, false}, {"back", 3, true}, {"ahead", 40, false}} {
		t.Run(link.name, func(t *testing.T) {
			inner := substInner(t, link.buckets)
			buf := inner.Buffer()
			bucket := page.ID(1)
			if link.buckets > 3 {
				seen, row := map[page.ID]bool{}, 0
				if err := am.Each(outer.Scan(), func(rid page.RID, tup []byte) error {
					if b := inner.Bucket(benchKey.Extract(tup)); !seen[b] && row < 256 {
						seen[b], bucket = true, b
					}
					row++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// The bucket's chain: its primary page, then its overflow pages.
			id := bucket
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
			if link.back {
				to = bucket
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
			cases := []substCase{
				{outerCap: 256, outCap: 256, failKey: -1, qualErr: -1},
				{outerCap: 3, outCap: 2, residual: true, failKey: -1, qualErr: -1},
			}
			if link.buckets > 3 {
				cases = []substCase{{outerCap: 256, outCap: 2, failKey: -1, qualErr: -1, slow: true}}
			}
			for _, c := range cases {
				base := runtime.NumGoroutine()
				want := runSubst(t, outer, inner, c, nestedLoop)
				if !errors.Is(want.err, page.ErrCorrupt) {
					t.Fatalf("reference over a looped chain: %v, want page.ErrCorrupt", want.err)
				}
				ser := runSubst(t, outer, inner, c, serial)
				checkSame(t, "serial", ser, want)
				par := runSubst(t, outer, inner, c, parallel)
				checkSame(t, "parallel", par, want)
				checkMarks(t, "parallel", par, ser)
				if g := goroutinesAfter(base); g > base {
					t.Fatalf("%d goroutines after the joins, %d before", g, base)
				}
			}
		})
	}
}

// substISAM is an ISAM file of substKeys keys, built one version each at
// half loading, then given seven more versions each, which go to the data
// pages' overflow chains: every probe walks a chain of several pages, and
// outer keys past the largest all land on the last data page's chain, as
// Q10's do.
func substISAM(t *testing.T) *isam.File {
	t.Helper()
	var built [][]byte
	for k := 0; k < substKeys; k++ {
		built = append(built, innerTuple(k, 0))
	}
	f, err := isam.Build(buffer.New("subst_isam", storage.NewMem()), benchWidth, benchKey, 50, built)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 8; v++ {
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

// chainsReached is how many chains the probes of keys can reach: the
// distinct chain heads between each key's first and last.
func chainsReached(t *testing.T, inner keyedFile, keys []int64) int {
	t.Helper()
	c, heads := inner.Parts().Chains, map[page.ID]bool{}
	for _, k := range keys {
		first, last, err := c.Locate(inner.Buffer(), k, k)
		if err != nil {
			t.Fatal(err)
		}
		for h := first; h <= last; h++ {
			heads[h] = true
		}
	}
	return len(heads)
}

// TestSubstJoinSharedWalks runs the join whose probes share their chain
// walks against the nested loop and, NextBatch by NextBatch, against the
// join probing without runs, over hash chains of many pages and of one and
// over ISAM data pages with long overflow chains. The outer keys repeat
// within each outer batch and across batches, so most probes replay a
// tape another probe recorded; outer batches of 7 and 1 rows pace the
// probes at fewer candidates than a key's eight versions, so a probe stops
// mid-page and views it again; the inner qualification fails on one
// candidate of a chain many keys share, which only key 30's probes offer;
// and key 30 fails to compute. It runs at one, two and four goroutines.
// Each execution records one tape per chain its probes reach: exactly one
// per bucket, and for ISAM no more than the data pages in the probes'
// ranges, fewer where a probe stops at a greater key.
func TestSubstJoinSharedWalks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	outer := substOuter(t, 700)
	var keys []int64
	if err := am.Each(outer.Scan(), func(_ page.RID, tup []byte) error {
		keys = append(keys, benchKey.Extract(tup))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		inner keyedFile
		exact bool // every chain the keys can reach is walked
	}{
		{"hash/3", substInner(t, 3), true},
		{"hash/40", substInner(t, 40), true},
		{"isam", substISAM(t), false},
	} {
		reached := chainsReached(t, in.inner, keys)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, c := range []substCase{
				{outerCap: 256, outCap: 256, failKey: -1, qualErr: -1},
				{outerCap: 7, outCap: 5, residual: true, failKey: -1, qualErr: -1},
				{outerCap: 1, outCap: 1, failKey: -1, qualErr: -1},
				{outerCap: 256, outCap: 5, failKey: -1, qualErr: 30},
				{outerCap: 7, outCap: 256, residual: true, failKey: -1, qualErr: 30, slow: true},
				{outerCap: 256, outCap: 5, failKey: 30, qualErr: -1, slow: true},
				{outerCap: 256, outCap: 256, failKey: -1, qualErr: -1, again: true},
				{outerCap: 7, outCap: 5, failKey: -1, qualErr: -1, again: true},
			} {
				name := fmt.Sprintf("%s/procs=%d/%+v", in.name, procs, c)
				base := runtime.NumGoroutine()
				want := runSubst(t, outer, in.inner, c, nestedLoop)
				if c.qualErr >= 0 && want.err == nil {
					t.Fatalf("%s: the reference did not fail", name)
				}
				ser := runSubst(t, outer, in.inner, c, serial)
				checkSame(t, name+"/serial", ser, want)
				par := runSubst(t, outer, in.inner, c, parallel)
				checkSame(t, name+"/parallel", par, want)
				checkMarks(t, name+"/parallel", par, ser)
				if g := goroutinesAfter(base); g > base {
					t.Fatalf("%s: %d goroutines after the joins, %d before", name, g, base)
				}
				if ser.recorded != 0 || ser.alone != 0 {
					t.Fatalf("%s: the join without runs recorded %d tapes", name, ser.recorded+ser.alone)
				}
				if par.recorded > int64(reached) || want.err == nil && in.exact && par.recorded != int64(reached) {
					t.Fatalf("%s: %d tapes recorded, %d chains reachable", name, par.recorded, reached)
				}
				if c.outerCap == 256 && c.outCap == 256 {
					t.Logf("%s: %d tapes recorded and %d chains walked alone for %d probes over %d reachable chains",
						name, par.recorded, par.alone, len(keys), reached)
				}
			}
		}
	}
}
