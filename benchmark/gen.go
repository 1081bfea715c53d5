package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync/atomic"

	"tdbms/internal/core"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// The benchmark relations are the Figure-3 pair: temporal_h hashed on id and
// temporal_i ISAM on id, bound to the range variables h and i.
var (
	relNames = [2]string{"temporal_h", "temporal_i"}
	relVars  = [2]string{"h", "i"}
)

const rangeDecls = "range of h is temporal_h\nrange of i is temporal_i"

// permSeed fixes the rank-to-id permutation: which ids are hot is a
// property of the workload, not of the run's seed.
const permSeed = 1986

// appendBase is the first id of the first client's private append range;
// each client owns appendStride ids.
const (
	appendBase   = 1_000_000
	appendStride = 1_000_000
)

// stmtKind is what a statement does, which decides how its result is
// checked.
type stmtKind int

const (
	kindCurrent stmtKind = iota // keyed lookup of the current version
	kindPast                    // keyed lookup as of a recorded round mark
	kindScan                    // one of the Figure-4 scans and joins
	kindReplace                 // keyed replace, seq = seq + 1
	kindAppend                  // append of a fresh id
)

// stmt is one generated statement and what the generator knows about it.
type stmt struct {
	kind stmtKind
	rel  int    // 0 = hashed relation, 1 = ISAM relation; -1 for joins
	id   int64  // the key, for keyed statements
	mark int    // kindPast: index into model.marks
	q    int    // kindScan: index into queryIDs
	text string // TQuel source
}

func (s *stmt) isWrite() bool { return s.kind == kindReplace || s.kind == kindAppend }

// scanResult is what a scan must return: the row count and an
// order-independent checksum of the rows.
type scanResult struct {
	rows int
	sum  uint64
}

// model is the generator's view of what the database must contain. Every
// oracle compares the engine's answer with it.
type model struct {
	n    int   // base ids are 1..n in both relations
	base int64 // seq of every base id after set-up (the update rounds)
	// marks[k] is an instant at which every base tuple's seq was k, in both
	// valid and transaction time.
	marks []temporal.Time
	// acked[rel][id-1] counts acknowledged replaces since set-up.
	acked [2][]atomic.Int32
	// writers is how many statements may be in flight against a relation a
	// reader reads: a current lookup may see that many unacknowledged
	// replaces.
	writers int32
	// appended[rel] counts acknowledged appends; appendedIDs holds them per
	// client (each client appends only to its own slice).
	appended    [2]atomic.Int64
	appendedIDs [][2][]int64
	// scans[q] is what history_scan's q-th query must return.
	scans []scanResult
	// scanText[q] is its TQuel source.
	scanText []string
	// perm maps a Zipf rank to an id (minus one), the same in every run.
	perm []int
}

func newModel(n int, base int64, marks []temporal.Time, clients int) *model {
	m := &model{n: n, base: base, marks: marks, appendedIDs: make([][2][]int64, clients),
		perm: rand.New(rand.NewSource(permSeed)).Perm(n)}
	for rel := range m.acked {
		m.acked[rel] = make([]atomic.Int32, n)
	}
	return m
}

// versions is the number of versions the relations must store: the loaded
// tuples, two versions per replace of a temporal relation (the closed
// history version and the new current one), one per append.
func (m *model) versions() int64 {
	v := int64(2*m.n) * (1 + 2*m.base)
	for rel := range m.acked {
		for i := range m.acked[rel] {
			v += 2 * int64(m.acked[rel][i].Load())
		}
		v += m.appended[rel].Load()
	}
	return v
}

// before reads what the oracle needs to know ahead of running st.
func (m *model) before(st *stmt) int32 {
	if st.kind == kindCurrent {
		return m.acked[st.rel][st.id-1].Load()
	}
	return 0
}

// ack records an acknowledged write.
func (m *model) ack(st *stmt, client int) {
	switch st.kind {
	case kindReplace:
		m.acked[st.rel][st.id-1].Add(1)
	case kindAppend:
		m.appended[st.rel].Add(1)
		m.appendedIDs[client][st.rel] = append(m.appendedIDs[client][st.rel], st.id)
	}
}

// check is the per-statement output oracle.
func (m *model) check(st *stmt, res *core.Result, before int32) error {
	switch st.kind {
	case kindCurrent:
		after := m.acked[st.rel][st.id-1].Load()
		lo, hi := m.base+int64(before), m.base+int64(after)+int64(m.writers)
		return oneRow(res, st.id, lo, hi)
	case kindPast:
		return oneRow(res, st.id, int64(st.mark), int64(st.mark))
	case kindScan:
		want := m.scans[st.q]
		if got := checksum(res); got != want {
			return fmt.Errorf("%d rows sum %x, reference executor gave %d rows sum %x", got.rows, got.sum, want.rows, want.sum)
		}
		// Q07 and Q08 select on an amount the generator made unique.
		if id := queryIDs[st.q]; (id == "Q07" || id == "Q08") && len(res.Rows) != 1 {
			return fmt.Errorf("%d rows, want exactly 1", len(res.Rows))
		}
	case kindReplace, kindAppend:
		if res.Affected != 1 {
			return fmt.Errorf("affected %d tuples, want 1", res.Affected)
		}
	}
	return nil
}

// oneRow checks a keyed (id, seq) lookup: exactly one row, the right id, seq
// within [lo, hi].
func oneRow(res *core.Result, id, lo, hi int64) error {
	if len(res.Rows) != 1 {
		return fmt.Errorf("%d rows, want exactly 1", len(res.Rows))
	}
	gotID, seq := res.Rows[0][0].I, res.Rows[0][1].I
	if gotID != id || seq < lo || seq > hi {
		return fmt.Errorf("got id %d seq %d, want id %d seq in [%d, %d]", gotID, seq, id, lo, hi)
	}
	return nil
}

// checksum folds a result into its row count and the sum of per-row hashes,
// so two executors that emit rows in different orders still agree.
func checksum(res *core.Result) scanResult {
	out := scanResult{rows: len(res.Rows)}
	for _, row := range res.Rows {
		h := fnv.New64a()
		for _, v := range row {
			switch v.Kind {
			case tuple.Char:
				fmt.Fprintf(h, "c%q|", v.S)
			case tuple.F4, tuple.F8:
				fmt.Fprintf(h, "f%g|", v.F)
			default:
				fmt.Fprintf(h, "i%d|", v.I)
			}
		}
		out.sum += h.Sum64()
	}
	return out
}

// checkFinal compares the current versions of one relation, as a fresh
// session retrieves them, with the model: every base id exactly once with
// seq = base + acknowledged replaces, every acknowledged append readable with
// seq 0, nothing else.
func (m *model) checkFinal(conn *core.Conn, rel int) error {
	v := relVars[rel]
	res, err := conn.Exec(fmt.Sprintf(`retrieve (%s.id, %s.seq) when %s overlap "now"`, v, v, v))
	if err != nil {
		return fmt.Errorf("final scan of %s: %w", relNames[rel], err)
	}
	got := make(map[int64]int64, len(res.Rows))
	for _, row := range res.Rows {
		if _, dup := got[row[0].I]; dup {
			return fmt.Errorf("final scan of %s: id %d has two current versions", relNames[rel], row[0].I)
		}
		got[row[0].I] = row[1].I
	}
	want := int64(m.n) + m.appended[rel].Load()
	if int64(len(got)) != want {
		return fmt.Errorf("final scan of %s: %d current tuples, model has %d", relNames[rel], len(got), want)
	}
	for i := range m.acked[rel] {
		id := int64(i + 1)
		if seq, ok := got[id]; !ok || seq != m.base+int64(m.acked[rel][i].Load()) {
			return fmt.Errorf("final scan of %s: id %d has seq %d (present %v), model has %d",
				relNames[rel], id, seq, ok, m.base+int64(m.acked[rel][i].Load()))
		}
	}
	for _, ids := range m.appendedIDs {
		for _, id := range ids[rel] {
			if seq, ok := got[id]; !ok || seq != 0 {
				return fmt.Errorf("final scan of %s: acknowledged append of id %d unreadable (present %v, seq %d)",
					relNames[rel], id, ok, seq)
			}
		}
	}
	return nil
}

// gen produces a workload's next statement.
type gen func() stmt

// keys draws ids: Zipf(s=1.1) ranks mapped through a fixed permutation, or
// uniform.
type keys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func (m *model) keys(rng *rand.Rand) *keys {
	return &keys{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(m.n-1)), perm: m.perm}
}

func (k *keys) zipfID() int64    { return int64(k.perm[k.zipf.Uint64()] + 1) }
func (k *keys) uniformID() int64 { return int64(k.rng.Intn(len(k.perm)) + 1) }

func currentStmt(rel int, id int64) stmt {
	v := relVars[rel]
	return stmt{kind: kindCurrent, rel: rel, id: id,
		text: fmt.Sprintf(`retrieve (%s.id, %s.seq) where %s.id = %d when %s overlap "now"`, v, v, v, id, v)}
}

func (m *model) pastStmt(rel int, id int64, mark int) stmt {
	v, t := relVars[rel], m.marks[mark].String()
	return stmt{kind: kindPast, rel: rel, id: id, mark: mark,
		text: fmt.Sprintf(`retrieve (%s.id, %s.seq) where %s.id = %d when %s overlap "%s" as of "%s"`, v, v, v, id, v, t, t)}
}

func replaceStmt(rel int, id int64) stmt {
	v := relVars[rel]
	return stmt{kind: kindReplace, rel: rel, id: id,
		text: fmt.Sprintf(`replace %s (seq = %s.seq + 1) where %s.id = %d`, v, v, v, id)}
}

// filler is the 96-byte string attribute of an appended tuple.
var filler = strings.Repeat("benchmark-append", 6)

func appendStmt(rel int, id int64) stmt {
	return stmt{kind: kindAppend, rel: rel, id: id,
		text: fmt.Sprintf(`append to %s (id = %d, amount = %d, seq = 0, string = "%s")`, relNames[rel], id, id*100, filler)}
}

// pointGen is point_read's mix: 40 % hashed current lookups, 40 % ISAM
// current lookups, 20 % past-state lookups alternating between the two.
func (m *model) pointGen(rng *rand.Rand) gen {
	k := m.keys(rng)
	past := 0
	return func() stmt {
		u, id := rng.Float64(), k.zipfID()
		switch {
		case u < 0.4:
			return currentStmt(0, id)
		case u < 0.8:
			return currentStmt(1, id)
		}
		past++
		return m.pastStmt(past%2, id, rng.Intn(len(m.marks)))
	}
}

// readGen is mixed_rw's reader: the hashed relation only — the one the
// writer replaces in — 90 % current, 10 % past-state.
func (m *model) readGen(rng *rand.Rand) gen {
	k := m.keys(rng)
	return func() stmt {
		if id := k.zipfID(); rng.Float64() < 0.9 {
			return currentStmt(0, id)
		} else {
			return m.pastStmt(0, id, rng.Intn(len(m.marks)))
		}
	}
}

// replaceGen is mixed_rw's writer: uniform keyed replaces in the hashed
// relation.
func (m *model) replaceGen(rng *rand.Rand) gen {
	k := m.keys(rng)
	return func() stmt { return replaceStmt(0, k.uniformID()) }
}

// writeGen is durable_write's mix for one client: 80 % uniform keyed
// replaces and 20 % appends of fresh ids from the client's own range, both
// alternating between the two relations.
func (m *model) writeGen(rng *rand.Rand, client int) gen {
	k := m.keys(rng)
	next := int64(appendBase + client*appendStride)
	n := 0
	return func() stmt {
		n++
		if rng.Float64() < 0.8 {
			return replaceStmt(n%2, k.uniformID())
		}
		next++
		return appendStmt(n%2, next)
	}
}

// scanGen cycles history_scan's queries in order.
func (m *model) scanGen() gen {
	n := 0
	return func() stmt {
		q := n % len(m.scanText)
		n++
		rel := -1
		switch queryIDs[q] {
		case "Q03", "Q07":
			rel = 0
		case "Q04", "Q08":
			rel = 1
		}
		return stmt{kind: kindScan, rel: rel, q: q, text: m.scanText[q]}
	}
}

// interleave yields one statement of b after every `every` statements of a —
// the serial replay of mixed_rw.
func interleave(a, b gen, every int) gen {
	n := 0
	return func() stmt {
		n++
		if n%(every+1) == 0 {
			return b()
		}
		return a()
	}
}
