// Command benchmark is the repository's statement-level benchmark: four
// workloads on the paper's Figure-3 schema, driven through core.Conn
// sessions exactly as an embedding application would drive them, every
// result checked against a model the generator maintains, and each layer
// measured from outside the engine. BENCHMARK.json at the repository root
// names its workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload point_read -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -runs 5 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// metricValue is one measured metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	attempted  atomic.Int64 // folded into Attempted when the run ends
	mu         sync.Mutex
	mismatches []string // the first ten
	spans      []span
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			u[m.Name] = m.Unit
		}
	}
	return u
}()

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// attempt counts one checked operation — a statement, or an end-of-run
// oracle; err is the engine's error or the oracle's verdict. Clients call it
// concurrently.
func (r *result) attempt(what string, err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s: %v", what, err))
	}
}

// runWorkload performs one run: set-up, the traced replay when asked for,
// warm-up, the timed window, and the end-of-run oracles.
func runWorkload(workload string, seed int64, cfg config, trace bool) (*result, error) {
	r := &result{Workload: workload, Seed: seed, Metrics: map[string]metricValue{}}
	if trace {
		r.Trace = 1
	}
	for _, m := range perLayer {
		r.set(m.Name, 0) // a layer the workload does not use reports 0
	}
	var err error
	if workload == durableWrite {
		err = r.runDisk(seed, cfg, trace)
	} else {
		err = r.runMem(workload, seed, cfg, trace)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	r.Attempted = r.attempted.Load()
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)))
	r.Correct = r.Failed == 0
	return r, nil
}

// runMem runs one of the three in-memory workloads.
func (r *result) runMem(workload string, seed int64, cfg config, trace bool) error {
	t0 := time.Now()
	db, m, err := buildMem(cfg)
	if err != nil {
		return err
	}
	r.set("setup_s", time.Since(t0).Seconds())
	e := &env{cfg: cfg, db: db, m: m, r: r}
	if _, err := e.sizeMetrics("_setup"); err != nil {
		return err
	}
	if workload == historyScan {
		if err := referenceScans(e.db, e.m); err != nil {
			return err
		}
	}
	if trace {
		// Both replays on the one database, untraced first: it also warms
		// the process up, and the state the traced replay starts from is the
		// same in every run of a seed.
		if err := r.traceLayers(workload, seed, e, e); err != nil {
			return err
		}
		if err := e.planMetrics(workload, seed, false); err != nil {
			return err
		}
	}
	if err := e.timedWindow(workload, seed); err != nil {
		return err
	}
	if workload == mixedRW {
		r.attempt("end-of-run check", verify(e.db, e.m))
	}
	bytes, err := e.sizeMetrics("")
	if err != nil {
		return err
	}
	e.spaceAmp(bytes)
	if trace {
		return e.planMetrics(workload, seed, true)
	}
	return nil
}

// runDisk runs durable_write. The timed window and, in a traced run, each
// replay get a database of their own, so every one starts from the same
// bytes.
func (r *result) runDisk(seed int64, cfg config, trace bool) error {
	built := 0
	build := func() (*env, *diskDB, error) {
		built++
		dir := filepath.Join(cfg.dir, fmt.Sprintf("durable-%d-%d", os.Getpid(), built))
		d, m, err := buildDisk(cfg, dir)
		if err != nil {
			return nil, nil, err
		}
		return &env{cfg: cfg, db: d.db, m: m, io: d.io, r: r}, d, nil
	}
	// finish crashes the database, recovers it, checks it against the model,
	// closes it cleanly and removes it, returning the recovery time and the
	// bytes the data files ended up with.
	finish := func(e *env, d *diskDB) (time.Duration, int64, error) {
		defer os.RemoveAll(d.dir)
		took, err := d.crash()
		if err != nil {
			return 0, 0, err
		}
		e.db = d.db
		r.attempt("end-of-run check", verify(e.db, e.m))
		if _, err := e.sizeMetrics(""); err != nil {
			return 0, 0, err
		}
		bytes, err := d.close()
		return took, bytes, err
	}

	// This set-up is a sixth of a second of mostly synchronous file I/O,
	// whose latency here depends on what the box did in the seconds before:
	// 0.15 s after a busy process, 0.25 s after a quiet minute. So it is
	// repeated back to back, the later ones in the state the earlier ones
	// left, and setup_s is the median; the last database is the one used.
	var e *env
	var d *diskDB
	var times []float64
	for i := 0; i < diskSetups; i++ {
		if d != nil {
			if _, err := d.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(d.dir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if e, d, err = build(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	if _, err := e.sizeMetrics("_setup"); err != nil {
		return err
	}
	if trace {
		plain, dPlain, err := build()
		if err != nil {
			return err
		}
		traced, dTraced, err := build()
		if err != nil {
			return err
		}
		if err := r.traceLayers(durableWrite, seed, plain, traced); err != nil {
			return err
		}
		if _, _, err := finish(plain, dPlain); err != nil {
			return err
		}
		if _, _, err := finish(traced, dTraced); err != nil {
			return err
		}
	}
	if err := e.timedWindow(durableWrite, seed); err != nil {
		return err
	}
	// The window is a fixed count of statements, so the crashed log is as
	// long in every run and its recovery time compares across runs and
	// commits.
	took, bytes, err := finish(e, d)
	if err != nil {
		return err
	}
	r.set("recover_s", took.Seconds())
	e.spaceAmp(bytes)
	return nil
}

// traceLayers replays the workload's fixed statement list untraced on one
// database and traced on another — or the same one — and reports the
// per-layer metrics.
func (r *result) traceLayers(workload string, seed int64, plainEnv, tracedEnv *env) error {
	plain, err := plainEnv.replay(workload, seed, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := tracedEnv.replay(workload, seed, tr)
	if err != nil {
		return err
	}
	r.layerMetrics(traced, plain, tr)
	r.spans = tr.spans
	return nil
}

// timedWindow runs the workload's clients through the warm-up and the timed
// window and reports what they measured. durable_write's warm-up is a tenth
// of its window's statements, and its window comes in durableRounds equal
// parts, each after as large a part of the first client's solo phase.
func (e *env) timedWindow(workload string, seed int64) error {
	as, err := e.actors(workload, seed)
	if err != nil {
		return err
	}
	if workload != durableWrite {
		runPhase(as, e.cfg.warmup, false)
		runPhase(as, e.cfg.window, true)
		e.r.windowMetrics(as, "")
		return nil
	}
	count := func(n int) {
		for _, a := range as {
			a.stmts = n
		}
	}
	count(e.cfg.durableStmts / 10)
	runPhase(as, 0, false)
	count(e.cfg.durableStmts / durableRounds)
	var solo []int64
	for k := 0; k < durableRounds; k++ {
		lat, err := as[0].solo(e.cfg.soloStmts / durableRounds)
		if err != nil {
			return err
		}
		solo = append(solo, lat...)
		runPhase(as, 0, true)
	}
	e.r.soloMetrics(solo)
	e.r.windowMetrics(as, "commit_")
	return nil
}

// line is the driver's view of a run: exactly these keys, with the
// end-to-end metrics of an untraced run or the per-layer metrics of a traced
// one.
func (r *result) line() ([]byte, error) {
	list := endToEnd
	if r.Trace == 1 {
		list = perLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		metrics[m.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print writes every metric of the run by name with its unit, then any
// oracle mismatches.
func (r *result) print() {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := r.Metrics[m.Name]; ok && (r.Trace == 1 || v.Value != 0) {
				fmt.Printf("%-14s %-28s %14.4f %s\n", r.Workload, m.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Printf("%-14s attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, msg := range r.mismatches {
		fmt.Printf("%-14s MISMATCH %s\n", r.Workload, msg)
	}
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// summary prints median and quartiles per gated metric over a workload's
// runs.
func (s *resultSet) summary() {
	for _, w := range workloads {
		for _, m := range gates(w.Name) {
			if xs := s.values(w.Name, m.Name); len(xs) > 1 {
				q1, med, q3 := quartiles(xs)
				fmt.Printf("%-14s %-12s median %14.4f  quartiles %14.4f .. %-14.4f spread %5.1f%% of bound %.0f%%  (%d runs) %s\n",
					w.Name, m.Name, med, q1, q3, 100*spread(xs), 100*m.Bound, len(xs), m.Unit)
			}
		}
	}
}

// failed sums the failed operations of a workload's runs.
func (s *resultSet) failed(workload string) int64 {
	var n int64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			n += r.Failed
		}
	}
	return n
}

func (s *resultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare applies the bounds to two result sets of several runs each, a the
// base and b the candidate, one row per workload and gated metric: within,
// regressed, or unresolved when either set's own run-to-run spread is wider
// than the bound. failed_share has no bound: any failure the base did not
// have is a regression. It reports whether anything regressed.
func compare(a, b *resultSet) bool {
	regressed := false
	fmt.Printf("%-14s %-12s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		if len(a.values(w.Name, "setup_s")) == 0 || len(b.values(w.Name, "setup_s")) == 0 {
			continue // a set without runs of this workload
		}
		for _, m := range gates(w.Name) {
			xa, xb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(xa), spread(xb))
			verdict := "within"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-14s %-12s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sp, 100*m.Bound, verdict)
		}
		fa, fb := a.failed(w.Name), b.failed(w.Name)
		verdict := "within"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Printf("%-14s %-12s %14d %14d %8s %8s %7s  %s\n", w.Name, "failed", fa, fb, "", "", "0", verdict)
	}
	return regressed
}

// writeTrace writes the spans of the traced runs to trace.json.
func writeTrace(dir string, runs []*result) error {
	type traced struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}
	var out []traced
	for _, r := range runs {
		if r.spans != nil {
			out = append(out, traced{r.Workload, r.Seed, r.spans})
		}
	}
	if out == nil {
		return nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

func main() {
	status, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		status = 2
	}
	os.Exit(status)
}

// run returns the exit status: 1 when an oracle failed or -compare found a
// regression, and an error for anything that kept the benchmark from
// measuring.
func run() (int, error) {
	cfg := defaultConfig()
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", fmt.Sprintf("workload to run, one of %v (default: all)", names))
	seed := flag.Int64("seed", 1, "seed of key and statement choice; run k of -runs uses seed+k")
	seconds := flag.Int("seconds", int(cfg.window/time.Second), fmt.Sprintf("length of the timed window, in seconds; durable_write runs %d statements per client for each", durableRate))
	trace := flag.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload; more than one prints median and quartiles per metric")
	out := flag.String("out", "", "write every run's metrics to this file, for -compare")
	cmp := flag.Bool("compare", false, "compare two -out files, base then candidate, against the bounds")
	flag.Parse()

	if *cmp {
		return runCompare(flag.Args())
	}
	if *workload != "" {
		names = []string{*workload}
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1")
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.durableStmts = *seconds * durableRate

	set := &resultSet{}
	var lines [][]byte
	status := 0
	for k := 0; k < *runs; k++ {
		for _, name := range names {
			r, err := runWorkload(name, *seed+int64(k), cfg, *trace == 1)
			if err != nil {
				return 2, err
			}
			r.print()
			if !r.Correct {
				status = 1
			}
			line, err := r.line()
			if err != nil {
				return 2, err
			}
			set.Runs = append(set.Runs, r)
			lines = append(lines, line)
		}
	}
	set.summary()
	if err := writeTrace(cfg.dir, set.Runs); err != nil {
		return 2, err
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return 2, err
		}
	}
	// The machine-readable results come last: one line per run, so the last
	// line of a single run is that run's.
	for _, line := range lines {
		fmt.Printf("%s\n", line)
	}
	return status, nil
}

func runCompare(files []string) (int, error) {
	if len(files) != 2 {
		return 2, fmt.Errorf("usage: benchmark -compare base.json candidate.json")
	}
	var sets [2]*resultSet
	for i, f := range files {
		s, err := readSet(f)
		if err != nil {
			return 2, err
		}
		sets[i] = s
	}
	if compare(sets[0], sets[1]) {
		return 1, nil
	}
	return 0, nil
}
