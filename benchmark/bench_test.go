package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tdbms/internal/core"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// tinyConfig is the benchmark at smoke-test size.
func tinyConfig(t *testing.T) config {
	return config{
		scale: 1, rounds: 1, durableTuples: 256, durableStmts: 250, soloStmts: 200,
		warmup: 50 * time.Millisecond, window: 300 * time.Millisecond,
		writerRate: 2000, replayStmts: 500, replayCycles: 1, planStmts: 100,
		dir: t.TempDir(),
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// TestManifest keeps BENCHMARK.json equal to the tables in spec.go.
func TestManifest(t *testing.T) {
	want := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: int(defaultConfig().window / time.Second),
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("BENCHMARK.json differs from spec.go; run `go test ./benchmark -run TestManifest -update`")
	}
}

// exactCounts are the per-layer metrics that are counts of a fixed statement
// list: they must repeat exactly for a seed.
var exactCounts = []string{
	"plan.probe_share", "exec.rows_examined_per_row", "exec.pages_per_row",
	"hashfile.pages_per_probe", "isam.pages_per_probe", "hashfile.pages_per_scan", "isam.pages_per_scan",
	"buffer.reads_per_stmt", "buffer.read_ops_per_stmt", "buffer.writes_per_stmt", "buffer.hit_rate",
	"catalog.pages_h_setup", "catalog.pages_i_setup",
	"storage.reads_per_stmt", "storage.writes_per_stmt", "storage.allocs_per_stmt",
	"wal.bytes_per_commit", "wal.appends_per_commit", "wal.syncs_per_commit", "wal.bytes_per_user_byte",
	"trace.spans",
}

// TestSmoke runs every workload untraced and traced at tiny sizes: every
// metric of BENCHMARK.json is emitted, finite and unit-tagged, no oracle
// fails, the traced counts repeat, and the trace accounts for its statements.
func TestSmoke(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range workloads {
		plain, err := runWorkload(w.Name, 7, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		checkLine(t, plain, endToEnd, true)
		for _, m := range gates(w.Name) {
			if v := plain.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: gated metric %s = %+v in an untraced run", w.Name, m.Name, v)
			}
		}

		traced, err := runWorkload(w.Name, 7, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		checkLine(t, traced, perLayer, false)
		again, err := runWorkload(w.Name, 7, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exactCounts {
			if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %v then %v for one seed", w.Name, name, a, b)
			}
		}

		lt := summarize(traced.spans)
		var self int64
		for _, ns := range lt.self {
			self += ns
		}
		if self != lt.total["stmt"] || self == 0 {
			t.Errorf("%s: layer self times sum to %d ns, stmt spans to %d ns", w.Name, self, lt.total["stmt"])
		}
		disk := lt.count["storage.read"] + lt.count["storage.write"] + lt.count["wal.append"] + lt.count["wal.sync"]
		if (w.Name == durableWrite) != (disk > 0) {
			t.Errorf("%s: %d storage and wal spans", w.Name, disk)
		}
	}
}

// checkLine checks the driver's line of a run: exactly the listed metrics,
// each finite and with its unit; end-to-end metrics are never 0.
func checkLine(t *testing.T, r *result, list []metricSpec, nonZero bool) {
	t.Helper()
	for _, msg := range r.mismatches {
		t.Errorf("%s: %s", r.Workload, msg)
	}
	data, err := r.line()
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]metricValue
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: %v in %s", r.Workload, err, data)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("%s: bad verdict in %s", r.Workload, data)
	}
	if len(line.Metrics) != len(list) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(line.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := line.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (nonZero && v.Value <= 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %s", r.Workload, m.Name, v, ok, m.Unit)
		}
	}
}

// cloneModel copies the counters an oracle reads.
func cloneModel(m *model) *model {
	c := newModel(m.n, m.base, m.marks, len(m.appendedIDs))
	for rel := range m.acked {
		for i := range m.acked[rel] {
			c.acked[rel][i].Store(m.acked[rel][i].Load())
		}
		c.appended[rel].Store(m.appended[rel].Load())
		for cl := range m.appendedIDs {
			c.appendedIDs[cl][rel] = append([]int64(nil), m.appendedIDs[cl][rel]...)
		}
	}
	return c
}

// TestCrashLosesUnsyncedTail: commits acknowledged without a sync sit in the
// log past the last Sync; the crash image must drop them, and recovery must
// land exactly on the last synced commit.
func TestCrashLosesUnsyncedTail(t *testing.T) {
	cfg := tinyConfig(t)
	d, m, err := buildDisk(cfg, filepath.Join(cfg.dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	e := &env{cfg: cfg, db: d.db, m: m, io: d.io, r: &result{Metrics: map[string]metricValue{}}}
	c, err := e.newClient(0)
	if err != nil {
		t.Fatal(err)
	}
	g := m.writeGen(rand.New(rand.NewSource(3)), 0)
	write := func(n int) {
		for i := 0; i < n; i++ {
			st := g()
			if _, _, ok := c.do(&st); !ok {
				t.Fatalf("write failed: %v", e.r.mismatches)
			}
		}
	}
	write(100)
	synced := cloneModel(m)
	c.conn.SetSyncCommit(false)
	write(100)
	written, kept := d.io.written.Load(), d.io.synced.Load()
	if kept >= written {
		t.Fatalf("log written to %d, synced to %d: no unsynced tail to lose", written, kept)
	}
	if _, err := d.crash(); err != nil {
		t.Fatal(err)
	}
	if err := verify(d.db, m); err == nil {
		t.Error("the unsynced commits survived the crash")
	}
	if err := verify(d.db, synced); err != nil {
		t.Errorf("state after recovery is not the last synced commit: %v", err)
	}
	if _, err := d.close(); err != nil {
		t.Fatal(err)
	}
}

// TestOraclesRejectWrongModel feeds each oracle a model that is wrong in the
// way the oracle exists to catch.
func TestOraclesRejectWrongModel(t *testing.T) {
	cfg := tinyConfig(t)
	db, m, err := buildMem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := referenceScans(db, m); err != nil {
		t.Fatal(err)
	}
	conn, err := newConn(db, "oracle")
	if err != nil {
		t.Fatal(err)
	}
	exec := func(st stmt) *core.Result {
		res, err := conn.Exec(st.text)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, st := range map[string]stmt{
		"current": currentStmt(0, 5), "past": m.pastStmt(1, 5, 0), "scan": m.scanGen()(),
	} {
		res := exec(st)
		if err := m.check(&st, res, 0); err != nil {
			t.Fatalf("%s: right model rejected: %v", name, err)
		}
		wrong := cloneModel(m)
		wrong.scans = []scanResult{{m.scans[0].rows, m.scans[0].sum + 1}}
		wrong.base++
		st.mark++
		if err := wrong.check(&st, res, 0); err == nil {
			t.Errorf("%s: wrong model accepted", name)
		}
	}
	replace := replaceStmt(0, 5)
	if err := m.check(&replace, &core.Result{Affected: 0}, 0); err == nil {
		t.Error("a replace that touched nothing was accepted")
	}
	if err := verify(db, m); err != nil {
		t.Fatalf("right model rejected: %v", err)
	}
	lostReplace := cloneModel(m)
	lostReplace.ack(&replace, 0)
	if err := verify(db, lostReplace); err == nil {
		t.Error("an acknowledged replace missing from the database was accepted")
	}
	lostAppend := cloneModel(m)
	add := appendStmt(1, appendBase+1)
	lostAppend.ack(&add, 0)
	if err := verify(db, lostAppend); err == nil {
		t.Error("an acknowledged append missing from the database was accepted")
	}
}

// TestCompare: a candidate is a regression when a gated metric worsens by
// more than its bound or when an oracle failed that did not fail on the base,
// and not otherwise.
func TestCompare(t *testing.T) {
	set := func(recover float64, failed int64) *resultSet {
		s := &resultSet{}
		for k := 0; k < 3; k++ {
			r := &result{Workload: durableWrite, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range gates(durableWrite) {
				r.set(m.Name, 1)
			}
			r.set("recover_s", recover)
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	base := set(1, 0)
	if compare(base, set(1.15, 0)) {
		t.Error("a recover_s 15 % worse, within its 20 % bound, regressed")
	}
	if !compare(base, set(1.25, 0)) {
		t.Error("a recover_s 25 % worse did not regress")
	}
	if !compare(base, set(1, 1)) {
		t.Error("a candidate whose oracles failed did not regress")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
