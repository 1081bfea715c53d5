package tdbms

// One testing.B benchmark per table/figure of the paper's evaluation.
// Each iteration regenerates the figure's measurements through the full
// engine (workload build, evolution, cold query runs) and reports the
// headline page counts as custom metrics, so `go test -bench .` both
// exercises the system end to end and reprints the numbers the paper
// reports. `cmd/tdbbench` renders the same data as full tables.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/temporal"
)

// benchMaxUC matches the paper's reporting point (update count 14).
const benchMaxUC = 14

func runSeries(b *testing.B, t bench.DBType, loading int) *bench.Series {
	b.Helper()
	s, err := bench.Run(t, loading, benchMaxUC, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFigure5 regenerates the space-requirements table: relation sizes
// and growth rates across the eight databases.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSeries(b, bench.Temporal, 100)
		r := runSeries(b, bench.Rollback, 50)
		if i == b.N-1 {
			b.ReportMetric(float64(s.SizeH[benchMaxUC]), "pages/temporalH_uc14")
			b.ReportMetric(float64(s.SizeI[benchMaxUC]), "pages/temporalI_uc14")
			b.ReportMetric(float64(r.SizeH[benchMaxUC]), "pages/rollback50H_uc14")
		}
	}
}

// BenchmarkFigure6 regenerates the per-update-count input costs of the
// temporal database with 100% loading.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSeries(b, bench.Temporal, 100)
		if i == b.N-1 {
			b.ReportMetric(float64(s.Cost["Q01"][benchMaxUC].Input), "pages/Q01_uc14")
			b.ReportMetric(float64(s.Cost["Q07"][benchMaxUC].Input), "pages/Q07_uc14")
			b.ReportMetric(float64(s.Cost["Q11"][benchMaxUC].Input), "pages/Q11_uc14")
		}
	}
}

// BenchmarkFigure7 regenerates the four-database comparison at update
// counts 0 and 14 (here: the two extremes, static and temporal).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := runSeries(b, bench.Static, 100)
		tp := runSeries(b, bench.Temporal, 100)
		if i == b.N-1 {
			b.ReportMetric(float64(st.Cost["Q07"][0].Input), "pages/staticQ07")
			b.ReportMetric(float64(tp.Cost["Q07"][0].Input), "pages/temporalQ07_uc0")
			b.ReportMetric(float64(tp.Cost["Q07"][benchMaxUC].Input), "pages/temporalQ07_uc14")
		}
	}
}

// BenchmarkFigure8 regenerates the growth-graph series: the temporal/100%
// and rollback/50% databases (the latter shows the jagged overflow-filling
// pattern).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := runSeries(b, bench.Temporal, 100)
		rb := runSeries(b, bench.Rollback, 50)
		if i == b.N-1 {
			b.ReportMetric(float64(tp.Cost["Q09"][benchMaxUC].Input), "pages/temporalQ09_uc14")
			b.ReportMetric(float64(rb.Cost["Q09"][benchMaxUC].Input), "pages/rollback50Q09_uc14")
		}
	}
}

// BenchmarkFigure9 regenerates the growth-rate analysis: the rate is the
// loading factor for rollback databases and twice that for temporal ones,
// independent of query and access method.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := runSeries(b, bench.Temporal, 100)
		rb := runSeries(b, bench.Rollback, 50)
		if i == b.N-1 {
			tr := bench.GrowthRates(tp)
			rr := bench.GrowthRates(rb)
			b.ReportMetric(tr["Q07"], "rate/temporal100")
			b.ReportMetric(rr["Q07"], "rate/rollback50")
		}
	}
}

// BenchmarkFigure10 regenerates the enhancements table: the two-level store
// and the secondary-index organizations.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure10(benchMaxUC, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.ConvN["Q07"]), "pages/conventionalQ07")
			b.ReportMetric(float64(r.Simple["Q07"]), "pages/twolevelQ07")
			b.ReportMetric(float64(r.Clustered["Q01"]), "pages/clusteredQ01")
			b.ReportMetric(float64(r.Idx["2-level hash"]["Q08"]), "pages/idx2hashQ08")
		}
	}
}

// BenchmarkNonUniform regenerates the Section 5.4 experiment: repeated
// updates of a single tuple leave the weighted-average growth rate at the
// uniform value.
func BenchmarkNonUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunNonUniform(2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.HotCost[1]), "pages/hotAccess_uc1")
			b.ReportMetric(r.Weighted[1], "pages/weightedAvg_uc1")
			b.ReportMetric(r.Rate[len(r.Rate)-1], "rate/weighted")
		}
	}
}

// BenchmarkAblationAccessMethods regenerates the access-method ablation:
// hash vs. ISAM vs. B-tree for a temporal relation (the Section 6
// discussion, measured).
func BenchmarkAblationAccessMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAccessAblation(benchMaxUC, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Probe["hash"][benchMaxUC]), "pages/hashVersionScan")
			b.ReportMetric(float64(r.Probe["btree"][benchMaxUC]), "pages/btreeVersionScan")
			b.ReportMetric(float64(r.Size["btree"][benchMaxUC]), "pages/btreeSize")
		}
	}
}

// BenchmarkAblationLoading regenerates the loading-factor crossover.
func BenchmarkAblationLoading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunLoadingAblation(benchMaxUC, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Cost["Q10"][100][0]), "pages/Q10ff100_uc0")
			b.ReportMetric(float64(r.Cost["Q10"][50][0]), "pages/Q10ff50_uc0")
			b.ReportMetric(float64(r.Cost["Q10"][100][benchMaxUC]), "pages/Q10ff100_uc14")
			b.ReportMetric(float64(r.Cost["Q10"][50][benchMaxUC]), "pages/Q10ff50_uc14")
		}
	}
}

// BenchmarkAblationBuffers regenerates the buffer-frame sensitivity
// experiment (the influence the paper's one-frame policy excluded).
func BenchmarkAblationBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunBufferAblation(4, []int{1, 64}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Cost["Q10"][0]), "pages/Q10_1frame")
			b.ReportMetric(float64(r.Cost["Q10"][1]), "pages/Q10_64frames")
		}
	}
}

// --- engine micro-benchmarks ---

func buildAPIBench(b *testing.B, n int) *DB {
	b.Helper()
	db := MustOpen(Options{Now: time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC)})
	if _, err := db.Exec(`create persistent interval r (id = i4, amount = i4, seq = i4, string = c96)`); err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i + 1, (i % 97) * 100, 0, "payload"}
	}
	if _, err := db.Load("r", rows); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`modify r to hash on id where fillfactor = 100
	                      range of x is r`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkHashedAccess measures the Q01/Q05 access path: a keyed probe of
// a hashed relation through the full TQuel engine.
func BenchmarkHashedAccess(b *testing.B) {
	db := buildAPIBench(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`retrieve (x.seq) where x.id = 500`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialScan measures the Q07 access path: a full scan with a
// non-key selection. The 1 024-tuple relation fits in the processor's
// caches; the scaled variant scans point_read's database, where Q07 reads
// about 43 500 pages and keeps one of their 184 000 tuples.
func BenchmarkSequentialScan(b *testing.B) {
	b.Run("scaled", benchScaledScan)
	b.Run("1024", func(b *testing.B) {
		db := buildAPIBench(b, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(`retrieve (x.seq) where x.amount = 4200 when x overlap "now"`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchScaledScan runs Q07's shape over the hashed relation of point_read's
// database, each scan selecting the next amount of a fixed stride.
func benchScaledScan(b *testing.B) {
	db, n := buildScaled(b)
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = fmt.Sprintf(`retrieve (h.id, h.seq) where h.amount = %d when h overlap "now"`, (i*7919)%n*100)
	}
	var pages int64
	for _, text := range texts { // warm: every amount once
		res, err := db.Exec(text)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("%s returned %d rows, want 1", text, len(res.Rows))
		}
		pages = res.InputPages
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pages), "pages/op")
}

// buildChainBench is the paper's update-count-8 database in miniature: a
// temporal relation of n tuples, hashed or ISAM at 100 % loading, every
// tuple replaced eight times, so each key's 17 versions share a 17-page
// chain with seven other keys' (Figures 6–8). It returns the time just
// after the fourth round, for as-of lookups. With dir empty the database is
// in memory; otherwise it is a persistent database with a write-ahead log in
// dir, and every page a lookup walks is read from the relation's data file.
func buildChainBench(tb testing.TB, method string, n int, dir string) (*DB, time.Time) {
	tb.Helper()
	start := time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC)
	var db *DB
	if dir == "" {
		db = MustOpen(Options{Now: start})
	} else {
		inner, err := core.Open(core.Options{Dir: dir, WAL: true, Now: temporal.FromUnix(start)})
		if err != nil {
			tb.Fatal(err)
		}
		db = &DB{inner: inner}
		tb.Cleanup(func() {
			if err := db.Close(); err != nil {
				tb.Error(err)
			}
		})
	}
	if _, err := db.Exec(`create persistent interval r (id = i4, amount = i4, seq = i4, string = c96)`); err != nil {
		tb.Fatal(err)
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i + 1, (i % 97) * 100, 0, "payload"}
	}
	if _, err := db.Load("r", rows); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec(fmt.Sprintf(`modify r to %s on id where fillfactor = 100
	                                  range of x is r`, method)); err != nil {
		tb.Fatal(err)
	}
	var mid time.Time
	for round := 1; round <= 8; round++ {
		db.AdvanceClock(time.Hour)
		if _, err := db.Exec(`replace x (seq = x.seq + 1)`); err != nil {
			tb.Fatal(err)
		}
		if round == 4 {
			db.AdvanceClock(time.Hour)
			mid = db.Now()
		}
	}
	db.AdvanceClock(time.Hour)
	return db, mid
}

// BenchmarkChainProbe measures the keyed lookup the paper's Figures 6–8
// price at 17 pages: a current-state and a past-state (as of) retrieve of
// one key, hashed and ISAM, each walking the key's whole overflow chain.
// The disk variants walk the same chains in a persistent, logged database,
// where each of those pages is a buffer miss read from the data file. The
// 1 024-tuple relation fits in the processor's caches; the scaled variants
// probe point_read's database — the Figure-3 temporal relations at 20 times
// paper scale after 8 update rounds, about 43 500 pages each — cycling over
// keys, so most of each chain's pages come from memory, not cache.
func BenchmarkChainProbe(b *testing.B) {
	b.Run("scaled", benchScaledProbe)
	const current = `retrieve (x.seq) where x.id = 500 when x overlap "now"`
	for _, method := range []string{"hash", "isam"} {
		db, mid := buildChainBench(b, method, 1024, "")
		asOf := mid.Format("2006-01-02 15:04:05")
		for _, q := range []struct{ name, text string }{
			{"current", current},
			{"asof", fmt.Sprintf(`retrieve (x.seq) where x.id = 500 when x overlap %q as of %q`, asOf, asOf)},
		} {
			b.Run(method+"/"+q.name, func(b *testing.B) { benchLookup(b, db, q.text) })
		}
	}
	for _, method := range []string{"hash", "isam"} {
		db, _ := buildChainBench(b, method, 1024, b.TempDir())
		b.Run("disk/"+method+"/current", func(b *testing.B) { benchLookup(b, db, current) })
	}
}

// buildScaled builds point_read's database — the Figure-3 temporal
// relations at 20 times paper scale after 8 update rounds — and returns it
// with its cardinality: ids run 1..n and amounts over {0, 100, ...,
// (n-1)*100}.
func buildScaled(b *testing.B) (*DB, int) {
	const scale, rounds = 20, 8
	sdb, err := bench.BuildScaled(bench.Temporal, 100, scale)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < rounds; k++ {
		if err := sdb.Update(); err != nil {
			b.Fatal(err)
		}
	}
	return &DB{inner: sdb.Inner}, scale * bench.NumTuples
}

// benchScaledProbe runs hashed and ISAM current lookups over point_read's
// database, each on the next key of a fixed stride through all of them.
func benchScaledProbe(b *testing.B) {
	db, n := buildScaled(b)
	for _, rel := range []struct{ v, method string }{{"h", "hash"}, {"i", "isam"}} {
		v := rel.v
		texts := make([]string, 4096)
		for i := range texts {
			texts[i] = fmt.Sprintf(`retrieve (%s.seq) where %s.id = %d when %s overlap "now"`, v, v, (i*7919)%n+1, v)
		}
		b.Run(rel.method+"/current", func(b *testing.B) {
			var pages int64
			for i := 0; i < len(texts); i++ { // warm: every statement shape and key once
				res, err := db.Exec(texts[i])
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("%s returned %d rows, want 1", texts[i], len(res.Rows))
				}
				pages = res.InputPages
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pages), "pages/op")
		})
	}
}

// benchLookup runs one single-row lookup b.N times on a warm session and
// reports the pages it reads.
func benchLookup(b *testing.B, db *DB, text string) {
	res, err := db.Exec(text)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Rows) != 1 {
		b.Fatalf("%s returned %d rows, want 1", text, len(res.Rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(text); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.InputPages), "pages/op")
}

// TestHashedLookupAllocBudget fails when a warm hashed current lookup —
// parse, bind the session's prepared statement to the key, a 17-page chain
// walk, one result row — allocates more than its budget in bytes or in
// allocations. The lookups cycle over keys, so what is measured is a
// prepared statement bound to a new literal, not a repeated text. The read
// path allocates nothing per page; what remains is the parsed statement,
// the result and the iterator. The budgets are the measurement (2 080 B,
// 20 allocations) plus a quarter; before the statement cache the same
// lookup cost 7 250 B in 106 allocations, and 79 KiB before the read path
// stopped copying pages.
func TestHashedLookupAllocBudget(t *testing.T) {
	const budget, allocBudget = 2600, 25
	db, _ := buildChainBench(t, "hash", 256, "")
	var queries [16]string
	for i := range queries {
		queries[i] = fmt.Sprintf(`retrieve (x.seq) where x.id = %d when x overlap "now"`, 16*i+7)
	}
	lookup := func(i int) {
		if _, err := db.Exec(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
	lookup(0) // warm: the statement, the session's arena and views exist from here on
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lookup(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("warm hashed current lookup: %d B/op, %d allocs/op", perOp, allocs)
	if perOp > budget || allocs > allocBudget {
		t.Fatalf("warm hashed current lookup allocates %d B/op in %d allocs/op, budget %d B in %d",
			perOp, allocs, budget, allocBudget)
	}
}

// BenchmarkJoinResidual measures Q09 on the temporal database at update
// count 2, on a warm session: a tuple-substitution join whose every
// candidate pair passes the Filter's residual — the whole where and when
// clauses — before the target list is evaluated, the evaluation work of a
// join rather than its page walks.
func BenchmarkJoinResidual(b *testing.B) {
	d, err := bench.Build(bench.Temporal, 100)
	if err != nil {
		b.Fatal(err)
	}
	for range 2 {
		if err := d.Update(); err != nil {
			b.Fatal(err)
		}
	}
	q09 := bench.Queries(bench.Temporal)[8]
	res, err := d.Inner.Exec(q09.Text)
	if err != nil {
		b.Fatal(err)
	}
	if q09.ID != "Q09" || len(res.Rows) == 0 {
		b.Fatalf("%s returned %d rows", q09.ID, len(res.Rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Inner.Exec(q09.Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemporalReplace measures the Section 4 update path: a temporal
// replace writes a closed version, a marker, and the new version.
func BenchmarkTemporalReplace(b *testing.B) {
	db := buildAPIBench(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.AdvanceClock(time.Second)
		stmt := fmt.Sprintf(`replace x (seq = x.seq + 1) where x.id = %d`, i%1024+1)
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures TQuel parsing of the paper's most complex query
// (Figure 2).
func BenchmarkParse(b *testing.B) {
	db := MustOpen(Options{})
	if _, err := db.Exec(`create persistent interval ha (id = i4, seq = i4)
		create persistent interval ia (id = i4, seq = i4, amount = i4)
		range of h is ha
		range of i is ia`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := db.Exec(`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
			valid from start of (h overlap i) to end of (h extend i)
			where h.id = 500 and i.amount = 73700
			when h overlap i
			as of "1981"`)
		if err != nil {
			b.Fatal(err)
		}
	}
}
