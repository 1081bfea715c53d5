package core

import (
	"encoding/binary"
	"slices"

	"tdbms/internal/exec"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/tquel"
)

// This file is the session's statement cache. A keyed lookup is one of a
// handful of statement shapes that differ only in a key and an instant, so
// a session keeps each shape it runs prepared — analyzed, planned, lowered,
// its qualifications compiled — and a later statement of the same shape
// only binds its literals and executes. The key is the statement's shape:
// its rendering with every numeric, string and dated time literal replaced
// by a slot recording the literal's kind, after the session's batch
// capacity and buffer policy, which the operators are built for. An entry
// owns a private copy of the statement whose literal nodes are the
// parameter slots: binding copies the new statement's literal values into
// them, and everything prepared reads the values from there when it runs.
// What a value decides is decided again on every execution (bind,
// Tree.Rebind); when the plan no longer fits the values, the statement is
// prepared afresh. Entries are dropped when what they were prepared under
// moves: the DDL epoch or the session's range table. Retrieves and the
// candidate scans of deletes and replaces are cached; `retrieve into`,
// grouped aggregates, DDL, append and copy never are.

// stmtCacheSize bounds the shapes one session keeps prepared.
const stmtCacheSize = 64

// stmtCache is a session's prepared statements by shape, evicted in
// insertion order. It is guarded by the session's mutex.
type stmtCache struct {
	m     map[string]*stmtEntry
	ring  [stmtCacheSize]string // keys in insertion order
	next  int
	epoch uint64 // the DDL epoch every entry was prepared in

	// The retrieve in flight: the statement lockSpec looked up, its shape
	// and literals, and its entry when the lookup hit. lockSpec reads the
	// entry's latch set before the statement's latches are taken; the
	// entry is used only once sync has checked the epoch under them.
	stmt *tquel.RetrieveStmt
	w    shaper
	hit  *stmtEntry
}

// stmtEntry is one prepared statement: a private copy of the statement,
// whose literal nodes (lits) every execution overwrites, with its
// analysis, plan and lowered operators.
type stmtEntry struct {
	key  string
	lits []literal
	q    *query

	// A retrieve: its relation latches, output, plan and pipeline.
	locks *latchSet
	out   *emitter
	tree  *plan.Tree
	steps []*detach
	root  exec.BatchOperator
	buf   *exec.Batch
	att   *exec.Attribution

	// The candidate scan of a delete or replace: the variable's summary,
	// its access node, and the addresses of the victims the run found.
	info plan.VarInfo
	leaf *plan.Node
	rids []page.RID
}

// lookup computes the key of a retrieve about to run and finds its entry,
// if the session has one.
func (c *stmtCache) lookup(conn *Conn, s *tquel.RetrieveStmt) *stmtEntry {
	c.stmt = s
	c.begin(conn)
	c.w.retrieve(s)
	c.hit = c.m[string(c.w.buf)]
	return c.hit
}

// begin starts a key with the session settings its operators are built
// for — batch capacity and buffer policy — so a statement run under other
// settings is another entry.
func (c *stmtCache) begin(conn *Conn) {
	pol := conn.bufferPolicy()
	c.w.reset()
	c.w.buf = binary.AppendUvarint(c.w.buf, uint64(conn.batchCap()))
	c.w.buf = binary.AppendUvarint(c.w.buf, uint64(pol.Frames))
	c.w.buf = binary.AppendUvarint(c.w.buf, uint64(pol.Readahead))
}

// sync empties the cache when a DDL statement ran since its entries were
// prepared. Caller holds the schema latch, which fences the epoch.
func (c *stmtCache) sync(epoch uint64) {
	if c.epoch != epoch {
		c.clear()
		c.epoch = epoch
	}
}

// clear drops every entry: the session's range table changed, or a DDL
// statement ran.
func (c *stmtCache) clear() {
	clear(c.m)
	c.ring = [stmtCacheSize]string{}
	c.next = 0
	c.hit = nil
}

// put keeps e under its key, evicting the oldest shape when the cache is
// full.
func (c *stmtCache) put(e *stmtEntry) {
	if c.m == nil {
		c.m = make(map[string]*stmtEntry, stmtCacheSize)
	}
	if _, ok := c.m[e.key]; !ok {
		delete(c.m, c.ring[c.next])
		c.ring[c.next] = e.key
		c.next = (c.next + 1) % stmtCacheSize
	}
	c.m[e.key] = e
}

// forget drops the entry of the retrieve in flight, which hands its plan
// tree to the caller (QueryPlan): a later execution would overwrite it.
func (c *stmtCache) forget() {
	if c.stmt == nil {
		return // a retrieve into: never looked up, never kept
	}
	key := string(c.w.buf)
	if i := slices.Index(c.ring[:], key); i >= 0 {
		c.ring[i] = ""
	}
	delete(c.m, key)
}

// bindLits copies a statement's literal values — the literals of the same
// shape, in the same order — into the entry's copy.
func (e *stmtEntry) bindLits(lits []literal) {
	for i, l := range lits {
		if l.c != nil {
			e.lits[i].c.Val = l.c.Val
		} else {
			e.lits[i].t.Text = l.t.Text
		}
	}
}

// shaper writes a statement's shape — its rendering, exactly as tquel's
// String methods render it, with every numeric or string constant and
// every dated time constant replaced by a slot — and lifts those
// literals, in order, into lits. Time constants that name no date ("now",
// "forever", "beginning") stay in the shape: analysis branches on "now".
// Every time constant, lifted or not, is also listed in times.
type shaper struct {
	buf   []byte
	lits  []literal
	times []*tquel.TConst
}

// literal is one lifted literal: a scalar constant or a dated time
// constant.
type literal struct {
	c *tquel.ConstExpr
	t *tquel.TConst
}

// A slot is the byte slotMark followed by the literal's kind: a tuple.Kind
// for a scalar constant, slotTime for a dated time constant. Nothing else
// in a shape contains slotMark — identifiers, keywords and operators are
// printable, and the literals that could hold any byte are the ones
// lifted.
const (
	slotMark = 0x00
	slotTime = 0xff
)

func (w *shaper) reset() {
	w.buf = w.buf[:0]
	clear(w.lits) // drop the previous statement's nodes
	w.lits = w.lits[:0]
	w.times = w.times[:0]
}

func (w *shaper) str(s string) { w.buf = append(w.buf, s...) }

// retrieve shapes a retrieve statement (RetrieveStmt.String).
func (w *shaper) retrieve(s *tquel.RetrieveStmt) {
	w.str("retrieve ")
	if s.Into != "" {
		w.str("into ")
		w.str(s.Into)
		w.str(" ")
	}
	if s.Unique {
		w.str("unique ")
	}
	w.str("(")
	for i, t := range s.Targets {
		if i > 0 {
			w.str(", ")
		}
		w.str(t.Name)
		w.str(" = ")
		w.expr(t.Expr)
	}
	w.str(")")
	if v := s.Valid; v != nil {
		if v.At != nil {
			w.str(" valid at ")
			w.texpr(v.At)
		} else {
			w.str(" valid from ")
			w.texpr(v.From)
			w.str(" to ")
			w.texpr(v.To)
		}
	}
	w.clauses(s.Where, s.When)
	if a := s.AsOf; a != nil {
		w.str(" as of ")
		w.texpr(a.At)
		if a.Through != nil {
			w.str(" through ")
			w.texpr(a.Through)
		}
	}
	for i, k := range s.Sort {
		if i == 0 {
			w.str(" sort by ")
		} else {
			w.str(", ")
		}
		w.str(k.Column)
		if k.Desc {
			w.str(" desc")
		}
	}
}

// candidates shapes the candidate scan of a delete or replace of v.
func (w *shaper) candidates(v string, where tquel.Expr, when tquel.TExpr) {
	w.str("candidates of ")
	w.str(v)
	w.clauses(where, when)
}

func (w *shaper) clauses(where tquel.Expr, when tquel.TExpr) {
	if where != nil {
		w.str(" where ")
		w.expr(where)
	}
	if when != nil {
		w.str(" when ")
		w.texpr(when)
	}
}

func (w *shaper) expr(x tquel.Expr) {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		w.buf = append(w.buf, slotMark, byte(ex.Val.Kind))
		w.lits = append(w.lits, literal{c: ex})
	case *tquel.AttrExpr:
		w.str(ex.Var)
		w.str(".")
		w.str(ex.Attr)
	case *tquel.BinaryExpr:
		w.str("(")
		w.expr(ex.L)
		w.str(" ")
		w.str(ex.Op)
		w.str(" ")
		w.expr(ex.R)
		w.str(")")
	case *tquel.UnaryExpr:
		if ex.Op == "not" {
			w.str("not (")
		} else {
			w.str(ex.Op)
			w.str("(")
		}
		w.expr(ex.X)
		w.str(")")
	case *tquel.TAttrExpr:
		w.str(ex.End)
		w.str(" of (")
		w.texpr(ex.X)
		w.str(")")
	case *tquel.AggExpr:
		w.str(ex.Fn)
		w.str("(")
		w.expr(ex.Arg)
		for i, b := range ex.By {
			if i == 0 {
				w.str(" by ")
			} else {
				w.str(", ")
			}
			w.expr(b)
		}
		w.str(")")
	}
}

func (w *shaper) texpr(x tquel.TExpr) {
	switch tx := x.(type) {
	case *tquel.TVar:
		w.str(tx.Var)
	case *tquel.TConst:
		w.times = append(w.times, tx)
		if isDated(tx) {
			w.buf = append(w.buf, slotMark, slotTime)
			w.lits = append(w.lits, literal{t: tx})
			return
		}
		// A word and white space: nothing the quoting escapes.
		w.str(`"`)
		w.str(tx.Text)
		w.str(`"`)
	case *tquel.TUnary:
		if tx.Op == "not" {
			w.str("not (")
			w.texpr(tx.X)
			w.str(")")
			return
		}
		w.str(tx.Op)
		w.str(" of ")
		w.texpr(tx.X)
	case *tquel.TBinary:
		w.str("(")
		w.texpr(tx.L)
		w.str(" ")
		w.str(tx.Op)
		w.str(" ")
		w.texpr(tx.R)
		w.str(")")
	}
}

// cloneRetrieve deep-copies a retrieve statement, so the copy's literal
// nodes can be rebound without touching the caller's statement.
func cloneRetrieve(s *tquel.RetrieveStmt) *tquel.RetrieveStmt {
	c := *s
	c.Targets = make([]tquel.Target, len(s.Targets))
	for i, t := range s.Targets {
		c.Targets[i] = tquel.Target{Name: t.Name, Expr: cloneExpr(t.Expr)}
	}
	if v := s.Valid; v != nil {
		c.Valid = &tquel.ValidClause{At: cloneTExpr(v.At), From: cloneTExpr(v.From), To: cloneTExpr(v.To)}
	}
	c.Where, c.When = cloneExpr(s.Where), cloneTExpr(s.When)
	if a := s.AsOf; a != nil {
		c.AsOf = &tquel.AsOfClause{At: cloneTExpr(a.At), Through: cloneTExpr(a.Through)}
	}
	c.Sort = slices.Clone(s.Sort)
	return &c
}

func cloneExpr(x tquel.Expr) tquel.Expr {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		c := *ex
		return &c
	case *tquel.AttrExpr:
		c := *ex
		return &c
	case *tquel.BinaryExpr:
		return &tquel.BinaryExpr{Op: ex.Op, L: cloneExpr(ex.L), R: cloneExpr(ex.R)}
	case *tquel.UnaryExpr:
		return &tquel.UnaryExpr{Op: ex.Op, X: cloneExpr(ex.X)}
	case *tquel.TAttrExpr:
		return &tquel.TAttrExpr{X: cloneTExpr(ex.X), End: ex.End}
	case *tquel.AggExpr:
		c := &tquel.AggExpr{Fn: ex.Fn, Arg: cloneExpr(ex.Arg)}
		for _, b := range ex.By {
			c.By = append(c.By, cloneExpr(b))
		}
		return c
	}
	return x // nil
}

func cloneTExpr(x tquel.TExpr) tquel.TExpr {
	switch tx := x.(type) {
	case *tquel.TVar:
		c := *tx
		return &c
	case *tquel.TConst:
		c := *tx
		return &c
	case *tquel.TUnary:
		return &tquel.TUnary{Op: tx.Op, X: cloneTExpr(tx.X)}
	case *tquel.TBinary:
		return &tquel.TBinary{Op: tx.Op, L: cloneTExpr(tx.L), R: cloneTExpr(tx.R)}
	}
	return x // nil
}
