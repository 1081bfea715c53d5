package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// TestWalkCounts pins the page I/O of every statement on the relations
// whose iterators are not hash or ISAM walks: both benchmark relations
// modified to B-trees, and both converted to the two-level store of
// Section 6 (simple and clustered history). Each statement's Reads,
// ReadOps and Writes are compared with testdata/walkcounts.golden, so a
// change to how the B-tree or two-level iterators visit their pages shows
// up as the statement whose count moved. Buffer hits are not pinned: a
// walk that reads a page once per call instead of once per tuple is
// allowed to hit less.
//
// The sequence per cell: two uniform update rounds (after the modify, for
// the B-tree cell), the twelve Figure 4 queries and four self-joins — the
// two variables of a self-join share the relation's one buffer frame —
// at the default batch capacity and again at capacity 1, an update round
// at each of those capacities, a copy-out and an analyze of each relation.
// The sequence runs as GOMAXPROCS is, and again at one, two and four
// goroutines: the counts must not depend on it. Two is the benchmark's
// configuration: one helper beside the calling goroutine.
func TestWalkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three benchmark databases")
	}
	for _, procs := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			var got []string
			withProcs(procs, func() {
				for _, cell := range []string{"btree", "twolevel-simple", "twolevel-clustered"} {
					got = append(got, walkCounts(t, cell)...)
				}
			})
			checkWalkCounts(t, got)
		})
	}
}

// checkWalkCounts compares got with the recording, writing it under
// -update when there is none.
func checkWalkCounts(t *testing.T, got []string) {
	t.Helper()
	const path = "testdata/walkcounts.golden"
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) && *update {
		data := walkCountsHeader + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimRight(string(want), "\n"), "\n") {
		if !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(got) {
		t.Fatalf("%d statements measured, %d recorded", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Errorf("statement counts differ from the recording\n got: %s\nwant: %s", got[i], lines[i])
		}
	}
}

const walkCountsHeader = `# Page I/O per statement on B-tree and two-level relations (TestWalkCounts).
# Lines: <cell> <step> <statement> reads=<n> readops=<n> writes=<n>.
# Recorded before the tuple-at-a-time iterator protocol was removed;
# -update writes the file only when it is absent.
`

// walkCounts runs one cell's statement sequence and returns a line per
// statement. It also runs the cell's warm-cache axis: the sequence, less
// the statements that restructure a relation, is replayed on the same
// session, whose statement cache holds every statement's prepared shape by
// then, and each replayed statement's counts must equal those of the same
// replay through a fresh session — a cold cache — on a second database
// built and driven identically. (The replay cannot be held to the
// recording: it runs against the state the first pass left behind, with
// statistics analyzed.)
func walkCounts(t *testing.T, cell string) []string {
	t.Helper()
	warm, cold := newWalkDB(t), newWalkDB(t)
	first := warm.sequence(t, cell, warm.b.Inner.DefaultSession(), false)
	cold.sequence(t, cell, cold.b.Inner.DefaultSession(), false)
	again := warm.sequence(t, cell, warm.b.Inner.DefaultSession(), true)
	fresh, err := SessionFor(cold.b, "replay")
	if err != nil {
		t.Fatal(err)
	}
	want := cold.sequence(t, cell, fresh, true)
	for i := range want {
		if again[i] != want[i] {
			t.Errorf("warm replay differs from a cold one\nwarm: %s\ncold: %s", again[i], want[i])
		}
	}
	return first
}

// walkDB is one benchmark database the walk-count sequence runs on.
type walkDB struct {
	b    *bench.DB
	step int
}

func newWalkDB(t *testing.T) *walkDB {
	t.Helper()
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &walkDB{b: b}
}

// sequence runs the cell's statements on sess and returns a line per
// statement. A replay skips the modify and the two-level conversion, which
// the first pass applied.
func (w *walkDB) sequence(t *testing.T, cell string, sess *core.Conn, replay bool) []string {
	t.Helper()
	b, db := w.b, w.b.Inner
	var out []string
	exec := func(name, src string) {
		t.Helper()
		before := db.Stats()
		res, err := sess.Exec(src)
		if err != nil {
			t.Fatalf("%s %s: %v", cell, name, err)
		}
		w.step++
		out = append(out, fmt.Sprintf("%s %03d %s reads=%d readops=%d writes=%d",
			cell, w.step, name, res.Input, res.InputOps, res.Output))
		t.Logf("%s %03d %s hits=%d", cell, w.step, name, db.Stats().Sub(before).Hits)
	}
	round := func(tag string) {
		t.Helper()
		db.Clock().Advance(3600)
		exec("update-h"+tag, `replace h (seq = h.seq + 1)`)
		exec("update-i"+tag, `replace i (seq = i.seq + 1)`)
		db.Clock().Advance(60)
	}

	if cell == "btree" && !replay {
		exec("modify-h", "modify "+b.H+" to btree on id")
		exec("modify-i", "modify "+b.I+" to btree on id")
	}
	round("")
	round("")
	if cell != "btree" && !replay {
		for _, rel := range []string{b.H, b.I} {
			if err := db.EnableTwoLevel(rel, cell == "twolevel-clustered"); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec("range-h2", "range of h2 is "+b.H)
	exec("range-i2", "range of i2 is "+b.I)
	queries := bench.Queries(bench.Temporal)
	selfJoins := []bench.Query{
		{ID: "S1", Text: `retrieve (h.id, h2.id) where h.id = h2.amount when h overlap h2 and h2 overlap "now"`},
		{ID: "S2", Text: `retrieve (i.id, i2.id) where i.id = i2.amount when i overlap i2 and i2 overlap "now"`},
		{ID: "S3", Text: `retrieve (h.seq, h2.seq) where h.id = h2.id and h2.id < 40`},
		{ID: "S4", Text: `retrieve (i.seq, i2.seq) where i2.id = i.id and i.id > 990`},
	}
	for _, n := range []int{256, 1} {
		sess.SetBatchSize(n)
		tag := fmt.Sprintf("@%d", n)
		for _, q := range append(queries, selfJoins...) {
			if q.Text != "" {
				exec(q.ID+tag, q.Text)
			}
		}
		round(tag)
	}
	sess.SetBatchSize(0)
	dir := t.TempDir()
	for _, rel := range []string{b.H, b.I} {
		exec("copy-"+rel, fmt.Sprintf(`copy %s () into %q`, rel, filepath.Join(dir, rel+".txt")))
		exec("analyze-"+rel, "analyze "+rel)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	return out
}
