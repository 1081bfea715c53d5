package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// config holds the sizes of a run. The defaults are the benchmark; the smoke
// test shrinks them.
type config struct {
	scale, rounds int // in-memory database: bench.BuildScaled scale, Update rounds
	durableTuples int // tuples per relation of the disk database
	durableStmts  int // statements per client of durable_write's timed window
	soloStmts     int // statements of durable_write's solo phase
	warmup        time.Duration
	window        time.Duration
	writerRate    int    // mixed_rw's open-loop writer, statements per second
	replayStmts   int    // traced replay: point and write statements
	replayCycles  int    // traced replay: cycles of history_scan
	planStmts     int    // statements whose executed plan is inspected
	dir           string // where disk databases and trace.json go
}

func defaultConfig() config {
	return config{
		scale: 20, rounds: 8, durableTuples: 8192, durableStmts: 20 * durableRate, soloStmts: 15000,
		warmup: 2 * time.Second, window: 20 * time.Second,
		writerRate: 2000, replayStmts: 5000, replayCycles: 3, planStmts: 500,
		dir: filepath.Join("benchmark", "out"),
	}
}

// durableRate turns the length of a timed window into durable_write's
// statement count per client: 20 000 for the 20 s default.
const durableRate = 1000

// durableRounds is into how many parts durable_write's solo phase and window
// are cut; a part of the one alternates with a part of the other.
const durableRounds = 10

// diskSetups is how many times durable_write sets its database up; see
// runDisk.
const diskSetups = 5

// clients is the number of concurrent sessions of the timed runs: the
// sandbox has two cores.
const clients = 2

// buildMem builds the in-memory database of point_read, history_scan and
// mixed_rw: the Figure-3 temporal relations at 100 % loading, scaled, then
// evolved by uniform update rounds so every version chain is rounds+1 long.
// The instant after each round is recorded as a mark for past-state lookups.
func buildMem(cfg config) (*core.Database, *model, error) {
	b, err := bench.BuildScaled(bench.Temporal, 100, cfg.scale)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	marks := []temporal.Time{b.Inner.Clock().Now()}
	for k := 0; k < cfg.rounds; k++ {
		if err := b.Update(); err != nil {
			return nil, nil, fmt.Errorf("update round %d: %w", k+1, err)
		}
		marks = append(marks, b.Inner.Clock().Now())
	}
	m := newModel(cfg.scale*bench.NumTuples, int64(cfg.rounds), marks, clients)
	want := map[string]bool{}
	for _, id := range queryIDs {
		want[id] = true
	}
	for _, q := range bench.Queries(bench.Temporal) {
		if want[q.ID] {
			m.scanText = append(m.scanText, q.Text)
		}
	}
	return b.Inner, m, nil
}

// referenceScans fills in what history_scan's queries must return, computed
// by a fresh session on the tuple-at-a-time executor — the reference the
// batch executor is checked against.
func referenceScans(db *core.Database, m *model) error {
	conn, err := newConn(db, "reference")
	if err != nil {
		return err
	}
	conn.SetBatchSize(-1)
	m.scans = m.scans[:0]
	for q, text := range m.scanText {
		res, err := conn.Exec(text)
		if err != nil {
			return fmt.Errorf("reference %s: %w", queryIDs[q], err)
		}
		m.scans = append(m.scans, checksum(res))
	}
	return nil
}

// newConn opens a session with the benchmark's range variables declared.
func newConn(db *core.Database, name string) (*core.Conn, error) {
	conn := db.NewSession(name)
	if _, err := conn.Exec(rangeDecls); err != nil {
		return nil, fmt.Errorf("session %s: %w", name, err)
	}
	return conn, nil
}

// diskDB is durable_write's database: page files and a sync-on-commit
// write-ahead log in a directory, opened through the counting wrappers.
type diskDB struct {
	dir string
	db  *core.Database
	io  *ioStats
}

func (d *diskDB) options() core.Options {
	return core.Options{Dir: d.dir, WAL: true, WrapFile: d.io.wrapFile, WrapLog: d.io.wrapLog}
}

// buildDisk creates the disk database with the benchmark's own loader
// (bench.BuildScaled cannot take options): the same schema and access
// methods, n tuples per relation with seq 0, then a checkpoint.
func buildDisk(cfg config, dir string) (*diskDB, *model, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	d := &diskDB{dir: dir, io: &ioStats{}}
	opts := d.options()
	opts.Now = temporal.Date(1980, 3, 1, 0, 0, 0)
	db, err := core.Open(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("open %s: %w", dir, err)
	}
	d.db = db
	n := cfg.durableTuples
	rows := make([][]tuple.Value, n)
	for i := range rows {
		rows[i] = []tuple.Value{tuple.IntValue(int64(i + 1)), tuple.IntValue(int64(i) * 100),
			tuple.IntValue(0), tuple.StrValue(filler)}
	}
	for _, rel := range relNames {
		create := fmt.Sprintf("create persistent interval %s (id = i4, amount = i4, seq = i4, string = c96)", rel)
		if _, err := db.Exec(create); err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", rel, err)
		}
		if _, err := db.Load(rel, rows); err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", rel, err)
		}
	}
	modify := fmt.Sprintf("modify %s to hash on id where fillfactor = 100\nmodify %s to isam on id where fillfactor = 100",
		relNames[0], relNames[1])
	if _, err := db.Exec(modify); err != nil {
		return nil, nil, fmt.Errorf("modify: %w", err)
	}
	if err := db.Checkpoint(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return d, newModel(n, 0, []temporal.Time{db.Clock().Now()}, clients), nil
}

// crash abandons the open handle without Close, cuts wal.log to the length
// the last completed Sync covered — a killed process would keep the rest in
// the operating system's cache, a power failure would not — and reopens the
// directory, which runs recovery. It returns how long that core.Open took.
func (d *diskDB) crash() (time.Duration, error) {
	keep := d.io.synced.Load()
	d.db = nil
	if err := os.Truncate(filepath.Join(d.dir, "wal.log"), keep); err != nil {
		return 0, fmt.Errorf("cut log: %w", err)
	}
	t0 := time.Now()
	db, err := core.Open(d.options())
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover %s: %w", d.dir, err)
	}
	d.db = db
	return took, nil
}

// close closes the database cleanly and returns the bytes its two data files
// occupy.
func (d *diskDB) close() (int64, error) {
	if err := d.db.Close(); err != nil {
		return 0, fmt.Errorf("close %s: %w", d.dir, err)
	}
	var bytes int64
	for _, rel := range relNames {
		st, err := os.Stat(filepath.Join(d.dir, rel+".tdb"))
		if err != nil {
			return 0, err
		}
		bytes += st.Size()
	}
	return bytes, nil
}

// verify is the end-of-run oracle: the structure is sound and both
// relations hold exactly what the model says.
func verify(db *core.Database, m *model) error {
	if err := db.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	conn, err := newConn(db, "verify")
	if err != nil {
		return err
	}
	for rel := range relNames {
		if err := m.checkFinal(conn, rel); err != nil {
			return err
		}
	}
	return nil
}
