package difftest

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// configUC is the evolution depth of the configuration matrix: one uniform
// update round, so every query answers against real version chains
// (superseded versions, delete markers) while the heap cells' unindexed
// joins stay tier-1-fast. Deeper evolution is pinned by the golden figures.
const configUC = 1

// TestConfigMatrix is the differential oracle over live configurations: for
// each database type, every access method × buffer policy × execution path
// must produce byte-identical canonical result tuples for all twelve
// benchmark queries. The baseline cell is the paper's own configuration
// (hash/isam, single frame, default session).
func TestConfigMatrix(t *testing.T) {
	for _, typ := range bench.Types {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			t.Parallel()
			// The paper cell runs first to establish the baseline; the other
			// methods then verify against it in parallel.
			baseline := matrixCell(t, typ, "paper", nil)
			for _, method := range Methods[1:] {
				method := method
				t.Run(method, func(t *testing.T) {
					t.Parallel()
					matrixCell(t, typ, method, baseline)
				})
			}
		})
	}
}

// matrixCell builds one (type, method) database, and a twin opened with a
// pooled policy (32 frames per relation, readahead 4), and checks every execution variant — database × session
// × batch capacity — against the cell's recorded answers (golden_test.go)
// and the baseline (nil = this cell defines it).
func matrixCell(t *testing.T, typ bench.DBType, method string, baseline map[string]string) map[string]string {
	t.Helper()
	b, err := BuildMethod(typ, method, configUC, core.Options{})
	if err != nil {
		t.Fatalf("build %s/%s: %v", typ, method, err)
	}
	pooled, err := BuildMethod(typ, method, configUC, core.Options{BufferFrames: 32, BufferReadahead: 4})
	if err != nil {
		t.Fatalf("build %s/%s pooled: %v", typ, method, err)
	}
	// The heap cells' unindexed joins are quadratic; running them once per
	// cell (the direct variant) covers the method axis, and the pool/session
	// × join interaction is covered by the paper and btree cells. The other
	// heap variants skip the join queries to stay tier-1-fast.
	joinsOnce := method == "heap"
	cell := fmt.Sprintf("matrix/%s/%s", typ, method)
	if *update {
		ref, err := SessionFor(b, "reference")
		if err != nil {
			t.Fatal(err)
		}
		ref.SetBatchSize(-1)
		snap, err := Snapshot(ref, typ)
		if err != nil {
			t.Fatalf("%s reference: %v", cell, err)
		}
		checkGolden(t, cell, "reference", snap)
	}
	run := func(variant string, x Execer) {
		var skip func(string) bool
		if joinsOnce && variant != "direct" {
			skip = func(id string) bool { return JoinQueries[id] }
		}
		snap, err := SnapshotFiltered(x, typ, skip)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", typ, method, variant, err)
		}
		checkGolden(t, cell, variant, snap)
		if baseline == nil {
			baseline = snap
			return
		}
		for id, got := range snap {
			if want := baseline[id]; got != want {
				t.Errorf("%s/%s/%s %s: result tuples diverge from baseline\n got: %q\nwant: %q",
					typ, method, variant, id, got, want)
			}
		}
	}

	// Default session, single-frame measurement policy.
	run("direct", b.Inner)

	// Explicit session, same policy.
	s, err := SessionFor(b, "zero")
	if err != nil {
		t.Fatal(err)
	}
	run("session", s)

	// The twin opened under the pooled policy with readahead: its default
	// session and an explicit one.
	run("pooled/direct", pooled.Inner)
	p, err := SessionFor(pooled, "pooled")
	if err != nil {
		t.Fatal(err)
	}
	run("pooled/session", p)

	// Batching axis: every capacity in goldenCaps — capacity 1 is
	// tuple-at-a-time and exercises every batch boundary — must match the
	// recorded answers like the default configuration above. Each query
	// runs twice on the session, the second time from its statement cache.
	// It runs again at one goroutine, where every scan walks its file
	// serially, and at four, where scans of several morsels walk them on
	// several.
	for _, n := range goldenCaps {
		for _, procs := range []int{0, 1, 4} {
			variant := fmt.Sprintf("session+batch%d", n)
			if procs > 0 {
				variant += fmt.Sprintf("+procs%d", procs)
			}
			c, err := SessionFor(b, variant)
			if err != nil {
				t.Fatal(err)
			}
			c.SetBatchSize(n)
			withProcs(procs, func() {
				run(variant, c)
				run(variant+"+warm", c)
			})
		}
	}
	return baseline
}

// procsMu serializes the runs that set GOMAXPROCS, so each restores the
// value it found.
var procsMu sync.Mutex

// withProcs runs fn with GOMAXPROCS set to procs, or as it is for 0.
func withProcs(procs int, fn func()) {
	if procs == 0 {
		fn()
		return
	}
	procsMu.Lock()
	defer procsMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestWorkerIndependence pins the bench-worker axis of the matrix: a full
// series sweep with one worker and with GOMAXPROCS workers must agree on
// every measurement — result rows and page counts alike.
func TestWorkerIndependence(t *testing.T) {
	one, err := bench.AllSeries(1, 1, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := bench.AllSeries(1, runtime.GOMAXPROCS(0), core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Error("series sweep differs between 1 worker and GOMAXPROCS workers")
	}
}
