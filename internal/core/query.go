package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"tdbms/internal/catalog"
	"tdbms/internal/heapfile"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// qvar is one range variable of a query with its per-variable plan inputs.
// The constants it points at are the statement's literal nodes, so they
// read whatever values the statement is bound to.
type qvar struct {
	name string
	h    *relHandle
	// sel are where-conjuncts referencing only this variable.
	sel []tquel.Expr
	// tsel are when-conjuncts referencing only this variable.
	tsel []tquel.TExpr
	// keyConst, when non-nil, is a constant the storage key is equated to.
	keyConst *tuple.Value
	// bounds are the inequalities on an integer storage key; bind folds
	// them into lo/hi (hasLo/hasHi), the range the ordered access methods
	// probe.
	bounds       []keyBound
	hasLo, hasHi bool
	lo, hi       int64
	// idxName/idxConst select a secondary index equality, when available.
	idxName  string
	idxConst *tuple.Value
	// overlapNow marks a when-conjunct `v overlap "now"` (either side).
	overlapNow bool
	// currentOnly marks queries that can be answered from current versions
	// alone — the two-level store's fast path (Section 6).
	currentOnly bool
	// temp, when non-nil, is the detached one-variable result this
	// variable now ranges over (multi-variable plans).
	temp *heapfile.File
}

// keyBound is one inequality on the storage key, normalized to key-on-the-
// left form.
type keyBound struct {
	op  string
	val *tuple.Value
}

// query is an analyzed retrieve (also used internally by DML). newQuery
// fills in what follows from the statement's shape and the catalog; bind
// fills in what follows from its literal values and the clock.
type query struct {
	stmt    *tquel.RetrieveStmt
	vars    []string // in order of first appearance
	qv      map[string]*qvar
	env     *env
	at, thr temporal.Time // rollback slice (as-of ... through ...)
	// asOf and through are the compiled as-of clause, nil when absent.
	asOf, through instantFn
	temps         []*heapfile.File
	// dml marks the candidate scan of a delete or replace, which touches
	// current versions only.
	dml bool
}

// varsInExpr accumulates range variables referenced by a scalar expression.
func varsInExpr(x tquel.Expr, out map[string]bool) {
	switch ex := x.(type) {
	case *tquel.AttrExpr:
		out[ex.Var] = true
	case *tquel.BinaryExpr:
		varsInExpr(ex.L, out)
		varsInExpr(ex.R, out)
	case *tquel.UnaryExpr:
		varsInExpr(ex.X, out)
	case *tquel.TAttrExpr:
		varsInTExpr(ex.X, out)
	case *tquel.AggExpr:
		varsInExpr(ex.Arg, out)
		for _, b := range ex.By {
			varsInExpr(b, out)
		}
	}
}

// varsInTExpr accumulates range variables referenced by a temporal
// expression.
func varsInTExpr(x tquel.TExpr, out map[string]bool) {
	switch tx := x.(type) {
	case *tquel.TVar:
		out[tx.Var] = true
	case *tquel.TUnary:
		varsInTExpr(tx.X, out)
	case *tquel.TBinary:
		varsInTExpr(tx.L, out)
		varsInTExpr(tx.R, out)
	}
}

// flattenAnd splits a where-clause into its top-level conjuncts.
func flattenAnd(x tquel.Expr, out []tquel.Expr) []tquel.Expr {
	if b, ok := x.(*tquel.BinaryExpr); ok && b.Op == "and" {
		return flattenAnd(b.R, flattenAnd(b.L, out))
	}
	return append(out, x)
}

// flattenTAnd splits a when-clause into its top-level conjuncts.
func flattenTAnd(x tquel.TExpr, out []tquel.TExpr) []tquel.TExpr {
	if b, ok := x.(*tquel.TBinary); ok && b.Op == "and" {
		return flattenTAnd(b.R, flattenTAnd(b.L, out))
	}
	return append(out, x)
}

// isNowConst reports whether a temporal expression is the constant "now".
func isNowConst(x tquel.TExpr) bool {
	c, ok := x.(*tquel.TConst)
	return ok && strings.EqualFold(strings.TrimSpace(c.Text), "now")
}

// isDated reports whether a time constant names a date rather than one of
// the words "now", "forever" (or "infinity") and "beginning".
func isDated(c *tquel.TConst) bool {
	t := strings.TrimSpace(c.Text)
	for _, w := range [...]string{"now", "forever", "infinity", "beginning"} {
		if strings.EqualFold(t, w) {
			return false
		}
	}
	return true
}

// analyze resolves variables, the rollback slice, per-variable selections,
// access-path candidates, and current-only flags.
func (db *Conn) analyze(s *tquel.RetrieveStmt) (*query, error) {
	q, err := db.newQuery(s)
	if err != nil {
		return nil, err
	}
	if err := db.bind(q); err != nil {
		return nil, err
	}
	return q, nil
}

// newQuery is the part of analysis that the statement's shape and the
// catalog decide: the variables in order of appearance, their relations'
// bindings, the single-variable conjuncts, and which of them can drive a
// probe, a range or an index. Nothing here reads a literal's value or the
// clock.
func (db *Conn) newQuery(s *tquel.RetrieveStmt) (*query, error) {
	var w shaper
	w.retrieve(s)
	q := &query{
		stmt: s,
		qv:   map[string]*qvar{},
		env: &env{vars: map[string]*binding{}, tconsts: w.times,
			tvals: make([]tconstVal, len(w.times))},
	}

	seen := map[string]bool{}
	for _, t := range s.Targets {
		varsInExpr(t.Expr, seen)
	}
	if s.Where != nil {
		varsInExpr(s.Where, seen)
	}
	if s.When != nil {
		varsInTExpr(s.When, seen)
	}
	if s.Valid != nil {
		for _, e := range []tquel.TExpr{s.Valid.At, s.Valid.From, s.Valid.To} {
			if e != nil {
				varsInTExpr(e, seen)
			}
		}
	}
	// Deterministic first-appearance order: walk targets, then clauses.
	appendVar := func(v string) error {
		if _, done := q.qv[v]; done || !seen[v] {
			return nil
		}
		h, err := db.relForVar(v)
		if err != nil {
			return err
		}
		q.qv[v] = &qvar{name: v, h: h}
		q.vars = append(q.vars, v)
		q.env.vars[v] = bindingFor(h.desc, h.desc.Schema)
		return nil
	}
	walkOrder := func(x tquel.Expr) error {
		m := map[string]bool{}
		varsInExpr(x, m)
		for _, t := range q.orderOf(x, m) {
			if err := appendVar(t); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range s.Targets {
		if err := walkOrder(t.Expr); err != nil {
			return nil, err
		}
	}
	// Any remaining variables from the clauses, in map-stable sorted order.
	var rest []string
	for v := range seen {
		if _, done := q.qv[v]; !done {
			rest = append(rest, v)
		}
	}
	for i := 0; i < len(rest); i++ {
		for j := i + 1; j < len(rest); j++ {
			if rest[j] < rest[i] {
				rest[i], rest[j] = rest[j], rest[i]
			}
		}
	}
	for _, v := range rest {
		if err := appendVar(v); err != nil {
			return nil, err
		}
	}

	// Split single-variable conjuncts.
	if s.Where != nil {
		for _, c := range flattenAnd(s.Where, nil) {
			m := map[string]bool{}
			varsInExpr(c, m)
			if len(m) == 1 {
				for v := range m {
					q.qv[v].sel = append(q.qv[v].sel, c)
				}
			}
		}
	}
	if s.When != nil {
		for _, c := range flattenTAnd(s.When, nil) {
			m := map[string]bool{}
			varsInTExpr(c, m)
			if len(m) == 1 {
				for v := range m {
					q.qv[v].tsel = append(q.qv[v].tsel, c)
				}
			}
		}
	}

	// Per-variable access-path candidates. Only a constant's kind decides
	// here; its value is read when the statement is bound.
	for _, v := range q.vars {
		qv := q.qv[v]
		desc := qv.h.desc
		for _, c := range qv.sel {
			attr, op, val, ok := comparisonWithConst(c, v)
			if !ok {
				continue
			}
			onKey := desc.KeyAttr != "" && strings.EqualFold(attr, desc.KeyAttr)
			if onKey && op == "=" && qv.keyConst == nil {
				qv.keyConst = val
				continue
			}
			// Inequalities on an integer key bound a range probe for the
			// ordered access methods.
			if onKey && op != "=" && val.Kind != tuple.F4 && val.Kind != tuple.F8 && val.IsNumeric() {
				qv.bounds = append(qv.bounds, keyBound{op, val})
				continue
			}
			if op == "=" && qv.idxName == "" && val.IsNumeric() {
				for name, ix := range qv.h.indexes {
					if strings.EqualFold(ix.Config().Attr, attr) {
						qv.idxName = name
						qv.idxConst = val
						break
					}
				}
			}
		}
		for _, c := range qv.tsel {
			b, ok := c.(*tquel.TBinary)
			if !ok || b.Op != "overlap" {
				continue
			}
			lv, lok := b.L.(*tquel.TVar)
			rv, rok := b.R.(*tquel.TVar)
			if lok && lv.Var == v && isNowConst(b.R) {
				qv.overlapNow = true
			}
			if rok && rv.Var == v && isNowConst(b.L) {
				qv.overlapNow = true
			}
		}
	}
	if a := s.AsOf; a != nil {
		c := &compiler{e: q.env, vars: q.env.vars}
		q.asOf = c.instant(a.At, false)
		if a.Through != nil {
			q.through = c.instant(a.Through, false)
		}
	}
	return q, nil
}

// bind is the part of analysis that the statement's literal values and the
// session's "now" decide: it parses every time constant once, resolves each
// variable's relation handle for this statement, and derives the rollback
// slice, the key range and the current-only flags. It runs once per
// execution of a prepared statement.
func (db *Conn) bind(q *query) error {
	now := db.now()
	e := q.env
	e.now = int64(now)
	for i, c := range e.tconsts {
		if j := slices.IndexFunc(e.tconsts[:i], func(d *tquel.TConst) bool { return d.Text == c.Text }); j >= 0 {
			e.tvals[i] = e.tvals[j] // an as-of lookup names its instant twice
			continue
		}
		t, err := temporal.Parse(c.Text, now)
		e.tvals[i] = tconstVal{t: t, err: err}
	}
	for _, v := range q.vars {
		h, err := db.relForVar(v)
		if err != nil {
			return err
		}
		q.qv[v].h = h
	}

	// Rollback slice: explicit as-of, defaulting to "now" (a rollback or
	// temporal relation shows its current state unless shifted back).
	q.at, q.thr = now, now
	if q.asOf != nil {
		at, _, err := q.asOf()
		if err != nil {
			return err
		}
		q.at, q.thr = at, at
		if q.through != nil {
			thr, _, err := q.through()
			if err != nil {
				return err
			}
			if thr < at {
				return fmt.Errorf("core: as-of range ends (%s) before it starts (%s)", thr, at)
			}
			q.thr = thr
		}
	}

	// Key ranges and current-only flags.
	sliceIsNow := q.at == now && q.thr == q.at
	for _, v := range q.vars {
		qv := q.qv[v]
		qv.hasLo, qv.hasHi, qv.lo, qv.hi = false, false, 0, 0
		for _, b := range qv.bounds {
			// k > MaxInt64 and k < MinInt64 hold for no key. Their bounds
			// saturate instead of wrapping, so the probe reads what
			// k >= MaxInt64 and k <= MinInt64 read, and the leaf's own
			// range (span) keeps it empty.
			n := b.val.AsInt()
			switch b.op {
			case ">":
				if n < math.MaxInt64 {
					n++
				}
				qv.tightenLo(n)
			case ">=":
				qv.tightenLo(n)
			case "<":
				if n > math.MinInt64 {
					n--
				}
				qv.tightenHi(n)
			case "<=":
				qv.tightenHi(n)
			}
		}
		switch qv.h.desc.Type {
		case catalog.Rollback:
			qv.currentOnly = sliceIsNow
		case catalog.Historical:
			qv.currentOnly = qv.overlapNow
		case catalog.Temporal:
			qv.currentOnly = sliceIsNow && qv.overlapNow
		default:
			qv.currentOnly = false
		}
		// DML touches current versions only; let a two-level store use
		// its primary store directly.
		if q.dml {
			qv.currentOnly = true
		}
	}
	return nil
}

// orderOf lists the variables of an expression in textual appearance order.
// (The map gives the set; rendering the expression gives a stable order.)
// The rendering is the expression's shape, so a variable named inside a
// string literal does not count as an appearance.
func (q *query) orderOf(x tquel.Expr, m map[string]bool) []string {
	var out []string
	var w shaper
	w.expr(x)
	s := string(w.buf)
	type pos struct {
		v string
		i int
	}
	var ps []pos
	for v := range m {
		if i := strings.Index(s, v+"."); i >= 0 {
			ps = append(ps, pos{v, i})
		} else {
			ps = append(ps, pos{v, len(s)})
		}
	}
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			if ps[j].i < ps[i].i || (ps[j].i == ps[i].i && ps[j].v < ps[i].v) {
				ps[i], ps[j] = ps[j], ps[i]
			}
		}
	}
	for _, p := range ps {
		out = append(out, p.v)
	}
	return out
}

// tightenLo raises the key range's lower bound.
func (qv *qvar) tightenLo(n int64) {
	if !qv.hasLo || n > qv.lo {
		qv.lo, qv.hasLo = n, true
	}
}

// tightenHi lowers the key range's upper bound.
func (qv *qvar) tightenHi(n int64) {
	if !qv.hasHi || n < qv.hi {
		qv.hi, qv.hasHi = n, true
	}
}

// flipOp mirrors a comparison operator (for `const op attr` conjuncts).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// comparisonWithConst matches a conjunct of the form v.attr OP const (either
// side), returning the attribute, the operator normalized to attr-on-the-
// left form, and the constant's value in the statement.
func comparisonWithConst(c tquel.Expr, v string) (string, string, *tuple.Value, bool) {
	b, ok := c.(*tquel.BinaryExpr)
	if !ok || !cmpOpSet[b.Op] {
		return "", "", nil, false
	}
	if a, ok := b.L.(*tquel.AttrExpr); ok && a.Var == v {
		if k, ok := b.R.(*tquel.ConstExpr); ok {
			return a.Attr, b.Op, &k.Val, true
		}
	}
	if a, ok := b.R.(*tquel.AttrExpr); ok && a.Var == v {
		if k, ok := b.L.(*tquel.ConstExpr); ok {
			return a.Attr, flipOp(b.Op), &k.Val, true
		}
	}
	return "", "", nil, false
}

var cmpOpSet = map[string]bool{"=": true, "<": true, "<=": true, ">": true, ">=": true}

// joinEquality matches a conjunct of form a.x = b.y across two different
// variables, returning both sides.
func joinEquality(c tquel.Expr) (l, r *tquel.AttrExpr, ok bool) {
	b, okb := c.(*tquel.BinaryExpr)
	if !okb || b.Op != "=" {
		return nil, nil, false
	}
	la, okl := b.L.(*tquel.AttrExpr)
	ra, okr := b.R.(*tquel.AttrExpr)
	if okl && okr && la.Var != ra.Var {
		return la, ra, true
	}
	return nil, nil, false
}

// keyBounds resolves the range-probe bounds with open sides saturated.
func (qv *qvar) keyBounds() (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if qv.hasLo {
		lo = qv.lo
	}
	if qv.hasHi {
		hi = qv.hi
	}
	return lo, hi
}

// neededAttrs lists the attribute names of variable v referenced anywhere
// in the statement, plus its implicit time attributes (needed to evaluate
// temporal predicates and the valid clause after detachment).
func (q *query) neededAttrs(v string) []string {
	names := map[string]bool{}
	var walkE func(x tquel.Expr)
	var walkT func(x tquel.TExpr)
	walkE = func(x tquel.Expr) {
		switch ex := x.(type) {
		case *tquel.AttrExpr:
			if ex.Var == v {
				names[strings.ToLower(ex.Attr)] = true
			}
		case *tquel.BinaryExpr:
			walkE(ex.L)
			walkE(ex.R)
		case *tquel.UnaryExpr:
			walkE(ex.X)
		case *tquel.TAttrExpr:
			walkT(ex.X)
		}
	}
	walkT = func(x tquel.TExpr) {
		switch tx := x.(type) {
		case *tquel.TVar:
			if tx.Var == v {
				// The variable denotes its valid interval.
				d := q.qv[v].h.desc
				if d.VF >= 0 {
					names[strings.ToLower(d.Schema.Attr(d.VF).Name)] = true
					names[strings.ToLower(d.Schema.Attr(d.VT).Name)] = true
				}
			}
		case *tquel.TUnary:
			walkT(tx.X)
		case *tquel.TBinary:
			walkT(tx.L)
			walkT(tx.R)
		}
	}
	s := q.stmt
	for _, t := range s.Targets {
		walkE(t.Expr)
	}
	if s.Where != nil {
		walkE(s.Where)
	}
	if s.When != nil {
		walkT(s.When)
	}
	if s.Valid != nil {
		for _, e := range []tquel.TExpr{s.Valid.At, s.Valid.From, s.Valid.To} {
			if e != nil {
				walkT(e)
			}
		}
	}
	// Default valid clause uses the variable's interval even when unnamed.
	d := q.qv[v].h.desc
	if s.Valid == nil && d.VF >= 0 {
		names[strings.ToLower(d.Schema.Attr(d.VF).Name)] = true
		names[strings.ToLower(d.Schema.Attr(d.VT).Name)] = true
	}
	var out []string
	for i := 0; i < d.Schema.NumAttrs(); i++ {
		n := strings.ToLower(d.Schema.Attr(i).Name)
		if names[n] {
			out = append(out, n)
		}
	}
	return out
}
