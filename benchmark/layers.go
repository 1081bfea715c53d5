package main

import (
	"fmt"
	"sort"
	"time"

	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/plan"
)

// userBytes is what one write statement stores on the user's behalf: the
// 108 bytes of a tuple's four user attributes.
const userBytes = 108

// storedBytes is the stored width of a version: the user attributes plus the
// four implicit time attributes of a temporal relation.
const storedBytes = userBytes + 16

// pageCount accumulates Result.Input over statements of one shape.
type pageCount struct{ n, pages int64 }

func (p pageCount) mean() float64 { return ratio(float64(p.pages), float64(p.n)) }

// replayStats is what a single-client replay of a fixed statement list
// observed from outside the engine. Every count in it repeats exactly for a
// given seed.
type replayStats struct {
	stmts, writes int
	elapsed       time.Duration
	reads         int          // read statements, and the time spent in them
	readNS        int64        //
	keyed, scans  [2]pageCount // Result.Input by relation: keyed statements, full scans
	buf           buffer.Stats // the session's account
	io            ioCounts     // the storage and log wrappers
}

func (e *env) ioCounts() ioCounts {
	if e.io == nil {
		return ioCounts{}
	}
	return e.io.counts()
}

// run executes the next n statements of g on one client, serially.
func (c *client) run(g gen, n int) replayStats {
	var rs replayStats
	buf0, io0 := c.conn.Stats(), c.e.ioCounts()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st := g()
		res, took, ok := c.do(&st)
		if !ok {
			continue
		}
		rs.stmts++
		if st.isWrite() {
			rs.writes++
		} else {
			rs.reads++
			rs.readNS += int64(took)
		}
		if st.rel < 0 {
			continue
		}
		switch st.kind {
		case kindCurrent, kindPast, kindReplace:
			rs.keyed[st.rel].n++
			rs.keyed[st.rel].pages += res.Input
		case kindScan:
			rs.scans[st.rel].n++
			rs.scans[st.rel].pages += res.Input
		}
	}
	rs.elapsed = time.Since(t0)
	rs.buf = c.conn.Stats().Sub(buf0)
	rs.io = c.e.ioCounts().sub(io0)
	return rs
}

// replay runs the workload's fixed statement list — 5 000 point or write
// statements, or 3 cycles of history_scan — on one fresh client. With a
// tracer, spans are recorded in the client around the parser and the engine
// and in the wrappers around every file and log call; without one this is
// the untraced base of trace.overhead_share and of the single-client read
// rate.
func (e *env) replay(workload string, seed int64, tr *tracer) (replayStats, error) {
	c, err := e.newClient(0)
	if err != nil {
		return replayStats{}, err
	}
	c.tr = tr
	if e.io != nil {
		e.io.tr = tr
		defer func() { e.io.tr = nil }()
	}
	n := e.cfg.replayStmts
	if workload == historyScan {
		n = e.cfg.replayCycles * len(queryIDs)
	}
	return c.run(e.replayGen(workload, seed), n), nil
}

// layerMetrics turns a traced replay, and the untraced replay of the same
// statements, into the per-layer metrics.
func (r *result) layerMetrics(traced, plain replayStats, tr *tracer) {
	lt := summarize(tr.spans)
	us := func(ns int64, per int) float64 { return ratio(float64(ns)/1e3, float64(per)) }
	per := func(n int64, per int) float64 { return ratio(float64(n), float64(per)) }
	n, commits := traced.stmts, traced.writes

	r.set("tquel.parse_us_per_stmt", us(lt.total["tquel.parse"], n))
	r.set("tquel.parse_share", ratio(float64(lt.total["tquel.parse"]), float64(lt.total["stmt"])))
	r.set("core.exec_us_per_stmt", us(lt.total["core.exec"], n))
	r.set("core.self_us_per_stmt", us(lt.self["core.exec"], n))

	r.set("hashfile.pages_per_probe", traced.keyed[0].mean())
	r.set("isam.pages_per_probe", traced.keyed[1].mean())
	r.set("hashfile.pages_per_scan", traced.scans[0].mean())
	r.set("isam.pages_per_scan", traced.scans[1].mean())

	r.set("buffer.reads_per_stmt", per(traced.buf.Reads, n))
	r.set("buffer.read_ops_per_stmt", per(traced.buf.ReadOps, n))
	r.set("buffer.writes_per_stmt", per(traced.buf.Writes, n))
	r.set("buffer.hit_rate", ratio(float64(traced.buf.Hits), float64(traced.buf.Hits+traced.buf.Reads)))

	io := traced.io
	r.set("storage.reads_per_stmt", per(io.reads, n))
	r.set("storage.writes_per_stmt", per(io.writes, n))
	r.set("storage.allocs_per_stmt", per(io.allocs, n))
	r.set("storage.read_us_per_stmt", us(io.readNS, n))
	r.set("storage.write_us_per_stmt", us(io.writeNS, n))

	r.set("wal.bytes_per_commit", per(io.appendBytes, commits))
	r.set("wal.appends_per_commit", per(io.appends, commits))
	r.set("wal.syncs_per_commit", per(io.syncs, commits))
	r.set("wal.sync_us", us(io.syncNS, int(io.syncs)))
	r.set("wal.sync_share", ratio(float64(lt.total["wal.sync"]), float64(lt.total["stmt"])))
	r.set("wal.write_us_per_commit", us(io.appendNS, commits))
	r.set("wal.bytes_per_user_byte", ratio(float64(io.appendBytes), float64(commits*userBytes)))

	r.set("core.read_ops_per_s_alone", ratio(float64(plain.reads), float64(plain.readNS)/1e9))
	r.set("trace.spans", float64(len(tr.spans)))
	tracedRate := ratio(float64(traced.stmts), traced.elapsed.Seconds())
	plainRate := ratio(float64(plain.stmts), plain.elapsed.Seconds())
	r.set("trace.overhead_share", 1-ratio(tracedRate, plainRate))
}

// planStats are counts read off executed plan trees.
type planStats struct {
	leaves, probes       int64 // access-path leaves, and those that are keyed probes
	examined, pages, out int64 // rows leaves produced, pages read, rows returned
	qerr                 []float64
}

// planPass executes the retrieves among the next n statements of g through
// Conn.QueryPlan and reads the executed trees: which access paths the planner
// chose, how many rows and pages they cost per result row, and — once
// `analyze` has given the planner statistics — how far its page estimates
// were from what ran.
func (c *client) planPass(g gen, n int) planStats {
	var ps planStats
	for i := 0; i < n; i++ {
		st := g()
		if st.isWrite() {
			continue
		}
		before := c.e.m.before(&st)
		res, tree, err := c.conn.QueryPlan(st.text)
		if err == nil {
			err = c.e.m.check(&st, res, before)
		}
		c.e.r.attempt(st.text, err)
		if err != nil {
			continue
		}
		ps.out += int64(len(res.Rows))
		tree.Walk(func(nd *plan.Node) {
			ps.pages += nd.IO.Reads
			switch nd.Op {
			case plan.OpProbe, plan.OpSubstProbe, plan.OpIndexScan:
				ps.probes++
			case plan.OpSeqScan, plan.OpRangeScan, plan.OpTempScan:
			default:
				return
			}
			ps.leaves++
			ps.examined += nd.ActRows
			if nd.HasEst && nd.EstPages > 0 && nd.IO.Reads > 0 {
				q := nd.EstPages / float64(nd.IO.Reads)
				if q < 1 {
					q = 1 / q
				}
				ps.qerr = append(ps.qerr, q)
			}
		})
	}
	return ps
}

// planMetrics runs the plan pass on the replay's statements. With analyzed
// set it first gives the planner statistics and reports how good its page
// estimates were; that pass runs last, because `analyze` switches the planner
// to its cost model, which the timed runs — engine defaults — must not see.
func (e *env) planMetrics(workload string, seed int64, analyzed bool) error {
	c, err := e.newClient(0)
	if err != nil {
		return err
	}
	if analyzed {
		if _, err := c.conn.Exec("analyze"); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	n := e.cfg.planStmts
	if workload == historyScan {
		n = len(queryIDs)
	}
	ps := c.planPass(e.replayGen(workload, seed), n)
	if analyzed {
		sort.Float64s(ps.qerr)
		if len(ps.qerr) > 0 {
			e.r.set("plan.est_pages_qerr_p50", ps.qerr[(len(ps.qerr)-1)/2])
		}
		return nil
	}
	e.r.set("plan.probe_share", ratio(float64(ps.probes), float64(ps.leaves)))
	e.r.set("exec.rows_examined_per_row", ratio(float64(ps.examined), float64(ps.out)))
	e.r.set("exec.pages_per_row", ratio(float64(ps.pages), float64(ps.out)))
	return nil
}

// windowMetrics derives the end-to-end metrics and the client diagnostics
// from the timed window. They describe the closed-loop clients; the open-loop
// writer of mixed_rw, whose rate is its schedule, is reported beside them.
// durable_write passes the prefix "commit_": its window waits on the host's
// fsync, which does not repeat, so what it measures there is a diagnostic and
// soloMetrics supplies the gated three.
func (r *result) windowMetrics(as []*actor, prefix string) {
	var lat []int64
	var ops float64
	perQuery := make([][]int64, len(queryIDs))
	for _, a := range as {
		if a.rate > 0 {
			r.writerMetrics(a)
			continue
		}
		ops += ratio(float64(len(a.rec.lat)), a.rec.elapsed.Seconds())
		lat = append(lat, a.rec.lat...)
		if a.cycle > 1 {
			for i, ns := range a.rec.lat {
				perQuery[a.rec.q[i]] = append(perQuery[a.rec.q[i]], ns)
			}
		}
	}
	r.set(prefix+"ops_per_s", ops)
	r.latencyMetrics(prefix, sorted(lat))
	r.set("client.p99_us", float64(percentile(lat, 99))/1e3)
	r.set("client.p999_us", float64(percentile(lat, 99.9))/1e3)
	r.set("client.samples", float64(len(lat)))
	for q, ns := range perQuery {
		if len(ns) > 0 {
			r.set(fmt.Sprintf("exec.q%s_ms", queryIDs[q][1:]), float64(percentile(sorted(ns), 50))/1e6)
		}
	}
}

func (r *result) latencyMetrics(prefix string, sortedNS []int64) {
	r.set(prefix+"p50_us", float64(percentile(sortedNS, 50))/1e3)
	r.set(prefix+"p95_us", float64(percentile(sortedNS, 95))/1e3)
}

// soloMetrics reports durable_write's gated timings from the solo phase: lat
// is each statement's latency with the log's Sync skipped, so the rate is
// statements per second of the client's time without the device's share.
func (r *result) soloMetrics(lat []int64) {
	var total int64
	for _, ns := range lat {
		total += ns
	}
	r.set("ops_per_s", ratio(float64(len(lat)), float64(total)/1e9))
	r.latencyMetrics("", sorted(lat))
}

// writerMetrics reports the open-loop writer: its latency from due time,
// and how late the generator itself ran.
func (r *result) writerMetrics(a *actor) {
	lat := sorted(a.rec.lat)
	r.set("write_p50_us", float64(percentile(lat, 50))/1e3)
	r.set("write_p95_us", float64(percentile(lat, 95))/1e3)
	var late, maxLate int64
	period := int64(time.Second) / int64(a.rate)
	for _, ns := range a.rec.late {
		if ns > period {
			late++
		}
		if ns > maxLate {
			maxLate = ns
		}
	}
	r.set("core.writer_late_share", ratio(float64(late), float64(len(a.rec.late))))
	r.set("core.writer_max_late_ms", float64(maxLate)/1e6)
}

// sizeMetrics reports the relations' sizes in pages under the given metric
// suffix and returns the bytes those pages occupy.
func (e *env) sizeMetrics(suffix string) (int64, error) {
	var total int64
	for rel, name := range relNames {
		n, err := e.db.NumPages(name)
		if err != nil {
			return 0, err
		}
		e.r.set("catalog.pages_"+relVars[rel]+suffix, float64(n))
		total += int64(n)
	}
	return total * page.Size, nil
}

// spaceAmp reports the bytes stored per byte of version data: bytes is what
// the relations occupy, and the model knows how many versions they must hold.
func (e *env) spaceAmp(bytes int64) {
	e.r.set("space_amp", ratio(float64(bytes), float64(e.m.versions()*storedBytes)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
