package main

// The tables in this file are the benchmark's contract: BENCHMARK.json at
// the repository root lists the same workloads and metrics under the same
// names (bench_test.go keeps the two equal), and later changes cite them by
// these names.

// metricSpec is one named metric: its unit, which direction is better, and —
// for end-to-end metrics — the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names.
const (
	pointRead    = "point_read"
	historyScan  = "history_scan"
	durableWrite = "durable_write"
	mixedRW      = "mixed_rw"
)

var workloads = []workloadSpec{
	{pointRead, "2 closed-loop clients, Zipf keyed current and past-state lookups on long version chains: parse, plan and hashfile/isam chain probes dominate; scans, wal and storage do nothing"},
	{historyScan, "1 client cycles seven Figure-4 scans and joins: exec batch operators, block scans and buffer do the work, parse and plan are noise; a front-end change must predict no change here"},
	{durableWrite, "2 closed-loop clients replace and append on a disk database with a sync-on-commit WAL, then crash and recover: wal, storage, write-back and group commit, which the in-memory workloads bypass"},
	{mixedRW, "open-loop 2000/s writer beside a closed-loop reader on one relation: point_read's layers with writes beside the reads, so latch hold time, view invalidation and writer stalls show here only"},
}

// endToEnd are the metrics every workload reports and the driver gates. The
// benchmark contract has one list for all workloads and rules out a metric
// that is 0, so the gates that only one workload defines are in workloadGates
// and failed_share is the failed count of the result line. On durable_write
// the three timings are those of the solo phase, which never waits for an
// fsync; what its two clients see is commit_* below.
//
// The issue's bounds were 20/10/10/20 %. A bound serves every workload and
// the driver refuses a benchmark whose ten-run spread exceeds it, so the
// noisiest hour of the noisiest workload sets it: ten-run spreads reach 7 %
// (ops_per_s, p50_us), 13 % (p95_us) and 12 % (setup_s) in memory, and
// durable_write, whose every statement touches the sandbox's disk, has shown
// 21 % (setup_s) (README.md, "Run-to-run spread").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
}

// workloadGates are the end-to-end metrics only one workload defines. Every
// run measures them, -runs and -compare apply their bounds beside endToEnd's,
// and the driver sees them among the per-layer metrics of a traced run.
var workloadGates = map[string][]metricSpec{
	durableWrite: {
		{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.20},
		{Name: "commit_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "commit_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "commit_p95_us", Unit: "us", Better: "lower", Bound: 0.20},
	},
	mixedRW: {
		{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.20},
	},
}

// issueBounds are the issue's bounds for the metrics above. The three
// in-memory workloads meet them, so -runs and -compare, which are not held to
// one bound per metric as BENCHMARK.json is, apply them there.
var issueBounds = map[string]float64{"setup_s": 0.20, "ops_per_s": 0.10, "p50_us": 0.10, "p95_us": 0.20}

// gates are the metrics and bounds -runs and -compare apply to a workload.
func gates(workload string) []metricSpec {
	g := append([]metricSpec(nil), endToEnd...)
	if workload != durableWrite {
		for i := range g {
			if b, ok := issueBounds[g[i].Name]; ok {
				g[i].Bound = b
			}
		}
	}
	return append(g, workloadGates[workload]...)
}

// queryIDs are the Figure-4 queries history_scan cycles. Q11 is left out: at
// this size it takes about two seconds and would be the whole metric.
var queryIDs = []string{"Q03", "Q04", "Q07", "Q08", "Q09", "Q10", "Q12"}

// perLayer are the ungated diagnostics, prefixed by the module they measure.
// A workload reports 0 for a layer it does not use.
var perLayer = []metricSpec{
	{Name: "tquel.parse_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "tquel.parse_share", Unit: "ratio", Better: "lower"},
	{Name: "core.exec_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "core.self_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "plan.probe_share", Unit: "ratio", Better: "higher"},
	{Name: "plan.est_pages_qerr_p50", Unit: "ratio", Better: "lower"},
	{Name: "exec.rows_examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "exec.pages_per_row", Unit: "pages", Better: "lower"},
	{Name: "exec.q03_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q04_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q07_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q08_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q09_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q10_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q12_ms", Unit: "ms", Better: "lower"},
	{Name: "hashfile.pages_per_probe", Unit: "pages", Better: "lower"},
	{Name: "isam.pages_per_probe", Unit: "pages", Better: "lower"},
	{Name: "hashfile.pages_per_scan", Unit: "pages", Better: "lower"},
	{Name: "isam.pages_per_scan", Unit: "pages", Better: "lower"},
	{Name: "buffer.reads_per_stmt", Unit: "pages", Better: "lower"},
	{Name: "buffer.read_ops_per_stmt", Unit: "count", Better: "lower"},
	{Name: "buffer.writes_per_stmt", Unit: "pages", Better: "lower"},
	{Name: "buffer.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "catalog.pages_h_setup", Unit: "pages", Better: "lower"},
	{Name: "catalog.pages_i_setup", Unit: "pages", Better: "lower"},
	{Name: "catalog.pages_h", Unit: "pages", Better: "lower"},
	{Name: "catalog.pages_i", Unit: "pages", Better: "lower"},
	{Name: "storage.reads_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.writes_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.read_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "storage.write_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "bytes", Better: "lower"},
	{Name: "wal.appends_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.write_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.writer_late_share", Unit: "ratio", Better: "lower"},
	{Name: "core.writer_max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "core.read_ops_per_s_alone", Unit: "1/s", Better: "higher"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p95_us", Unit: "us", Better: "lower"},
	{Name: "commit_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "commit_p95_us", Unit: "us", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
