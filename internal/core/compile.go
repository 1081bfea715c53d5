package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tdbms/internal/am"
	"tdbms/internal/catalog"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// This file is the engine's expression evaluator. It compiles TQuel's
// scalar and temporal expressions — qualifications, targets, aggregate
// arguments and grouping expressions, valid and as-of clauses, DML values —
// into closures over the bindings of the range variables. Everything a
// binding decides is resolved once, when the closure is built: attribute
// positions, the valid- and transaction-time columns, which slot of the
// statement's parsed time constants a constant reads. Integer comparisons
// run directly on the stored bytes. The closures read the statement's
// values when they run — the literal nodes, the rollback slice, the time
// constants bind parsed — so one compilation serves every execution of a
// prepared statement.
//
// Errors surface when and where the language raises them: per evaluation,
// lazily, after `and`/`or` short-circuit, so `x.nope` is an error only when
// it is evaluated. Beside an error the value means nothing; no caller reads
// it. An AST interpreter kept in eval_test.go is the reference; a seeded
// property test holds every evaluation site to its values and errors.

// binding holds the tuple currently bound to a range variable. During tuple
// substitution the tuple may come from a temporary relation, whose schema
// preserves attribute names, so resolution is always by name.
type binding struct {
	schema *tuple.Schema
	tup    []byte
	// Valid-time attribute positions within schema, or -1.
	vf, vt int
	event  bool
	// Transaction-time attribute positions, or -1.
	ts, te int
	typ    catalog.DBType
}

// bindingFor builds a binding over schema: desc's stored schema, or a
// temporary projection of it, which carries a subset of the attribute
// names.
func bindingFor(desc *catalog.Relation, schema *tuple.Schema) *binding {
	find := func(i int) int {
		if i < 0 {
			return -1
		}
		return schema.Index(desc.Schema.Attr(i).Name)
	}
	return &binding{
		schema: schema,
		vf:     find(desc.VF),
		vt:     find(desc.VT),
		event:  desc.Model == catalog.ModelEvent,
		ts:     find(desc.TS),
		te:     find(desc.TE),
		typ:    desc.Type,
	}
}

// validInterval is the valid-time interval of the bound tuple; the binding
// must carry valid time.
func (b *binding) validInterval() temporal.Interval {
	if b.event {
		return temporal.Event(temporal.Time(b.schema.Int(b.tup, b.vf)))
	}
	return temporal.Interval{
		From: temporal.Time(b.schema.Int(b.tup, b.vf)),
		To:   temporal.Time(b.schema.Int(b.tup, b.vt)),
	}
}

// env is the evaluation context of one statement: the range variables'
// bindings over their relations, and the clock reading for "now".
type env struct {
	vars map[string]*binding
	now  int64 // temporal.Time
	// tconsts are the time constants of the query's statement and tvals
	// their values, parsed once per execution against now (bind).
	tconsts []*tquel.TConst
	tvals   []tconstVal
}

// tconstVal is a time constant parsed for one execution.
type tconstVal struct {
	t   temporal.Time
	err error
}

// tval is the result of a temporal expression: either a boolean (precede,
// equal, and/or/not) or an interval with a non-emptiness flag. In predicate
// position an interval coerces to "is non-empty", so `when h overlap i`
// holds exactly when the two validity intervals share an instant.
type tval struct {
	isBool   bool
	b        bool
	iv       temporal.Interval
	nonempty bool
}

func boolVal(b bool) tval { return tval{isBool: true, b: b} }

func intervalVal(iv temporal.Interval, ok bool) tval { return tval{iv: iv, nonempty: ok} }

// truth coerces a tval to a boolean.
func (t tval) truth() bool {
	if t.isBool {
		return t.b
	}
	return t.nonempty
}

// Compiled expressions, by the kind of value they produce.
type (
	valFn     func() (tuple.Value, error)
	boolFn    func() (bool, error)
	tvalFn    func() (tval, error)
	instantFn func() (temporal.Time, bool, error)
)

// fail compiles an expression whose every evaluation fails with err.
func fail[T any](err error) func() (T, error) {
	return func() (T, error) {
		var zero T
		return zero, err
	}
}

// unbound is the error of reading a variable no tuple is bound to.
func unbound(v string) error { return fmt.Errorf("core: range variable %q is not bound", v) }

// notInQuery is the error of naming a variable the statement does not
// range over.
func notInQuery(v string) error {
	return fmt.Errorf("core: range variable %q is not part of this query", v)
}

// compiler compiles expressions in an environment, with the range variables
// resolved to vars: the relations' own bindings, or — in a pipeline after
// detachment — a detached variable's temporary projection.
type compiler struct {
	e    *env
	vars map[string]*binding
	// The output phase of an aggregate retrieve reads each aggregate of
	// aggs from the same position of aggVals and, in a grouped one, an
	// expression rendering as by[k] from byVals[k] — the values of the
	// group being output.
	aggs    []*tquel.AggExpr
	aggVals []tuple.Value
	by      []string
	byVals  []tuple.Value
}

// leafQual is a variable's qualification as its leaf applies it. The
// rollback slice and the leading run of `v.attr op k` conjuncts, with attr
// an integer attribute and k an integer literal on either side, are
// ranges, which the leaf's block tests on the stored bytes
// (am.Block.Offer) before any closure runs; rest is the rest of the
// qualification, compiled, or nil when nothing is left. Only a prefix is
// absorbed, so a later conjunct that can fail still fails for exactly the
// tuples that reach it. The ranges are the leaf's own: fill sets their
// bounds in place for each execution, from the rollback slice and the
// literals' values. Which conjuncts are absorbed depends only on the
// literals' kinds, which the statement-cache key pins.
type leafQual struct {
	ranges []am.Range
	bounds []rangeBound
	rest   boolFn
}

// rangeBound derives one range of a leaf from the statement: the range
// holds the integers x with `x op *k`.
type rangeBound struct {
	op string
	k  *int64
}

// fill sets the leaf's range bounds for this execution.
func (l *leafQual) fill() {
	for i, b := range l.bounds {
		l.ranges[i].Lo, l.ranges[i].Hi = span(b.op, *b.k)
	}
}

// span is {k : k op n} as an inclusive range. A bound of n-1 or n+1 past
// the int64 limits makes the range empty; it never wraps.
func span(op string, n int64) (lo, hi int64) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	switch op {
	case "=":
		return n, n
	case "<=":
		return minI, n
	case ">=":
		return n, maxI
	case "<":
		if n == minI {
			return maxI, minI
		}
		return minI, n - 1
	}
	if n == maxI {
		return maxI, minI
	}
	return n + 1, maxI
}

// compileVarQual splits v's qualification — the transaction slice, its
// scalar and its temporal selections, in that order — against v's binding
// in vars. The caller installs each tuple that is within the ranges in that
// binding before running the rest.
func (q *query) compileVarQual(v string, vars map[string]*binding) *leafQual {
	c := &compiler{e: q.env, vars: vars}
	b := vars[v]
	l := &leafQual{}
	absorb := func(i int, op string, k *int64) {
		l.ranges = append(l.ranges, am.Range{Key: am.Key{Offset: b.schema.Offset(i), Width: b.schema.Attr(i).Width()}})
		l.bounds = append(l.bounds, rangeBound{op, k})
	}
	if b.ts >= 0 {
		// ts <= thr and te > at.
		absorb(b.ts, "<=", (*int64)(&q.thr))
		absorb(b.te, ">", (*int64)(&q.at))
	}
	// The comparison compare runs for `v.attr op k` with both sides integers
	// cannot fail, and an integer range is the same test: a stored value
	// fits in 32 bits, so its float64 comparison with k is exact.
	sel := q.qv[v].sel
	for ; len(sel) > 0; sel = sel[1:] {
		attr, op, k, ok := comparisonWithConst(sel[0], v)
		if !ok || !integral(k.Kind) {
			break
		}
		i := b.schema.Index(attr)
		if i < 0 || !integral(b.schema.Attr(i).Kind) {
			break
		}
		absorb(i, op, &k.I)
	}
	var checks []boolFn
	for _, x := range sel {
		checks = append(checks, c.bool(x))
	}
	for _, x := range q.qv[v].tsel {
		checks = append(checks, c.tbool(x))
	}
	if len(checks) > 0 {
		l.rest = all(checks)
	}
	return l
}

// all is the conjunction of checks, evaluated in order up to the first
// that fails or errs.
func all(checks []boolFn) boolFn {
	if len(checks) == 1 {
		return checks[0]
	}
	return func() (bool, error) {
		for _, c := range checks {
			ok, err := c()
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
}

// bool compiles a where-clause predicate.
func (c *compiler) bool(x tquel.Expr) boolFn {
	switch ex := x.(type) {
	case *tquel.BinaryExpr:
		switch ex.Op {
		case "and", "or":
			l, r, or := c.bool(ex.L), c.bool(ex.R), ex.Op == "or"
			return func() (bool, error) {
				ok, err := l()
				if err != nil || ok == or {
					return ok, err
				}
				return r()
			}
		case "=", "!=", "<", "<=", ">", ">=":
			return c.compare(ex)
		}
		return fail[bool](fmt.Errorf("core: value expression %q used as a predicate", ex.Op))
	case *tquel.UnaryExpr:
		if ex.Op == "not" {
			f := c.bool(ex.X)
			return func() (bool, error) {
				ok, err := f()
				return !ok, err
			}
		}
		return fail[bool](fmt.Errorf("core: value expression used as a predicate"))
	}
	// The message renders x, literals included, so it is built when the
	// predicate runs: a prepared statement's literals change between runs.
	return func() (bool, error) { return false, fmt.Errorf("core: expression %s is not a predicate", x) }
}

// compare compiles a comparison. When both sides are integer readers the
// comparison runs on the stored integers, through float64 exactly as
// tuple.Compare compares numeric values.
func (c *compiler) compare(ex *tquel.BinaryExpr) boolFn {
	op := ex.Op
	if li, ok := c.int(ex.L); ok {
		if ri, ok := c.int(ex.R); ok {
			return func() (bool, error) {
				return holds(op, cmp.Compare(float64(li()), float64(ri()))), nil
			}
		}
	}
	l, r := c.expr(ex.L), c.expr(ex.R)
	return func() (bool, error) {
		lv, err := l()
		if err != nil {
			return false, err
		}
		rv, err := r()
		if err != nil {
			return false, err
		}
		n, err := tuple.Compare(lv, rv)
		return holds(op, n), err
	}
}

// holds reports whether a three-way comparison result satisfies op.
func holds(op string, n int) bool {
	switch op {
	case "=":
		return n == 0
	case "!=":
		return n != 0
	case "<":
		return n < 0
	case "<=":
		return n <= 0
	case ">":
		return n > 0
	}
	return n >= 0
}

// int compiles x to a direct int64 reader when it is built purely from
// integer-kind attributes, integer constants and +, -, * (division can
// fail, so it is not a reader). A reader cannot fail, so it assumes its
// variables are bound: comparisons run only in qualifications, which see
// complete bindings.
func (c *compiler) int(x tquel.Expr) (func() int64, bool) {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		if !integral(ex.Val.Kind) {
			return nil, false
		}
		return func() int64 { return ex.Val.I }, true
	case *tquel.AttrExpr:
		b, ok := c.vars[ex.Var]
		if !ok {
			return nil, false
		}
		sc, i := b.schema, b.schema.Index(ex.Attr)
		if i < 0 || !integral(sc.Attr(i).Kind) {
			return nil, false
		}
		return func() int64 { return sc.Int(b.tup, i) }, true
	case *tquel.UnaryExpr:
		if ex.Op != "-" {
			return nil, false
		}
		f, ok := c.int(ex.X)
		if !ok {
			return nil, false
		}
		return func() int64 { return -f() }, true
	case *tquel.BinaryExpr:
		l, lok := c.int(ex.L)
		r, rok := c.int(ex.R)
		if !lok || !rok {
			return nil, false
		}
		switch ex.Op {
		case "+":
			return func() int64 { return l() + r() }, true
		case "-":
			return func() int64 { return l() - r() }, true
		case "*":
			return func() int64 { return l() * r() }, true
		}
	}
	return nil, false
}

// integral reports whether k is an integer kind: I1, I2, I4 or Temporal.
func integral(k tuple.Kind) bool { return k != tuple.F4 && k != tuple.F8 && k != tuple.Char }

// expr compiles a scalar expression.
func (c *compiler) expr(x tquel.Expr) valFn {
	if len(c.by) > 0 {
		if k := slices.Index(c.by, x.String()); k >= 0 {
			return read(c.byVals, k)
		}
	}
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		return func() (tuple.Value, error) { return ex.Val, nil }
	case *tquel.AttrExpr:
		return c.attr(ex)
	case *tquel.UnaryExpr:
		if ex.Op != "-" {
			return fail[tuple.Value](fmt.Errorf("core: predicate %q used as a value", ex.Op))
		}
		f := c.expr(ex.X)
		return func() (tuple.Value, error) {
			v, err := f()
			if err != nil {
				return tuple.Value{}, err
			}
			if !v.IsNumeric() {
				return tuple.Value{}, fmt.Errorf("core: cannot negate a string")
			}
			if v.Kind == tuple.F4 || v.Kind == tuple.F8 {
				return tuple.FloatValue(-v.F), nil
			}
			return tuple.Value{Kind: v.Kind, I: -v.I}, nil
		}
	case *tquel.BinaryExpr:
		switch ex.Op {
		case "+", "-", "*", "/":
		default:
			return fail[tuple.Value](fmt.Errorf("core: predicate %q used as a value", ex.Op))
		}
		l, r, op := c.expr(ex.L), c.expr(ex.R), ex.Op
		return func() (tuple.Value, error) {
			lv, err := l()
			if err != nil {
				return tuple.Value{}, err
			}
			rv, err := r()
			if err != nil {
				return tuple.Value{}, err
			}
			return arith(op, lv, rv)
		}
	case *tquel.TAttrExpr:
		f, end := c.t(ex.X), ex.End
		return func() (tuple.Value, error) {
			tv, err := f()
			if err != nil {
				return tuple.Value{}, err
			}
			if tv.isBool {
				return tuple.Value{}, fmt.Errorf("core: %s of a predicate", end)
			}
			if end == "end" && !tv.iv.IsEvent() {
				return tuple.TemporalValue(int64(tv.iv.To)), nil
			}
			return tuple.TemporalValue(int64(tv.iv.From)), nil
		}
	case *tquel.AggExpr:
		if i := slices.Index(c.aggs, ex); i >= 0 {
			return read(c.aggVals, i)
		}
		return fail[tuple.Value](fmt.Errorf("core: aggregate %s(...) is allowed only in retrieve target lists", ex.Fn))
	}
	return fail[tuple.Value](fmt.Errorf("core: unsupported expression %T", x))
}

// read compiles a read of vals[i].
func read(vals []tuple.Value, i int) valFn {
	return func() (tuple.Value, error) { return vals[i], nil }
}

// attr compiles an attribute reference.
func (c *compiler) attr(ex *tquel.AttrExpr) valFn {
	b, ok := c.vars[ex.Var]
	if !ok {
		return fail[tuple.Value](notInQuery(ex.Var))
	}
	sc, i := b.schema, b.schema.Index(ex.Attr)
	return func() (tuple.Value, error) {
		switch {
		case b.tup == nil:
			return tuple.Value{}, unbound(ex.Var)
		case i < 0:
			return tuple.Value{}, fmt.Errorf("core: %s has no attribute %q", ex.Var, ex.Attr)
		}
		return sc.Value(b.tup, i), nil
	}
}

// arith applies an arithmetic operator with Quel's numeric promotion:
// integer op integer stays integral; anything involving a float is float.
func arith(op string, l, r tuple.Value) (tuple.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return tuple.Value{}, fmt.Errorf("core: arithmetic on strings")
	}
	isFloat := l.Kind == tuple.F4 || l.Kind == tuple.F8 || r.Kind == tuple.F4 || r.Kind == tuple.F8
	if isFloat {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case "+":
			return tuple.FloatValue(a + b), nil
		case "-":
			return tuple.FloatValue(a - b), nil
		case "*":
			return tuple.FloatValue(a * b), nil
		case "/":
			if b == 0 {
				return tuple.Value{}, fmt.Errorf("core: division by zero")
			}
			return tuple.FloatValue(a / b), nil
		}
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case "+":
		return tuple.IntValue(a + b), nil
	case "-":
		return tuple.IntValue(a - b), nil
	case "*":
		return tuple.IntValue(a * b), nil
	case "/":
		if b == 0 {
			return tuple.Value{}, fmt.Errorf("core: division by zero")
		}
		return tuple.IntValue(a / b), nil
	}
	return tuple.Value{}, fmt.Errorf("core: unknown operator %q", op)
}

// tbool compiles a when-clause predicate.
func (c *compiler) tbool(x tquel.TExpr) boolFn {
	f := c.t(x)
	return func() (bool, error) {
		v, err := f()
		return v.truth(), err
	}
}

// instant compiles a temporal expression in a position that denotes an
// instant: an interval contributes its start, or, in a valid-to position
// (end), its end instant — an event's own instant, since events occupy
// [t, t+1). ok reports non-emptiness.
func (c *compiler) instant(x tquel.TExpr, end bool) instantFn {
	f := c.t(x)
	return func() (temporal.Time, bool, error) {
		v, err := f()
		if err != nil {
			return 0, false, err
		}
		if v.isBool {
			return 0, false, fmt.Errorf("core: predicate used where an instant is required")
		}
		if end && !v.iv.IsEvent() && !v.iv.IsEmpty() {
			return v.iv.To, v.nonempty, nil
		}
		return v.iv.From, v.nonempty, nil
	}
}

// t compiles a temporal expression.
func (c *compiler) t(x tquel.TExpr) tvalFn {
	switch tx := x.(type) {
	case *tquel.TVar:
		b, ok := c.vars[tx.Var]
		if !ok {
			return fail[tval](notInQuery(tx.Var))
		}
		return func() (tval, error) {
			switch {
			case b.tup == nil:
				return tval{}, unbound(tx.Var)
			case b.vf < 0:
				return tval{}, fmt.Errorf("core: %s relation has no valid time (when/valid clauses are not applicable; use `as of` for rollback relations)", b.typ)
			}
			iv := b.validInterval()
			return intervalVal(iv, iv.Valid() && !iv.IsEmpty()), nil
		}
	case *tquel.TConst:
		return c.tconst(tx)
	case *tquel.TUnary:
		f, op := c.t(tx.X), tx.Op
		switch op {
		case "not", "start", "end":
		default:
			return fail[tval](fmt.Errorf("core: unknown temporal operator %q", op))
		}
		return func() (tval, error) {
			v, err := f()
			switch {
			case err != nil:
				return tval{}, err
			case op == "not":
				return boolVal(!v.truth()), nil
			case v.isBool:
				return tval{}, fmt.Errorf("core: %s of a predicate", op)
			case op == "start":
				return intervalVal(v.iv.Start(), v.nonempty), nil
			}
			return intervalVal(v.iv.End(), v.nonempty), nil
		}
	case *tquel.TBinary:
		l, r, op := c.t(tx.L), c.t(tx.R), tx.Op
		if op == "and" || op == "or" {
			or := op == "or"
			return func() (tval, error) {
				lv, err := l()
				if err != nil || lv.truth() == or {
					return boolVal(or), err
				}
				rv, err := r()
				if err != nil {
					return tval{}, err
				}
				return boolVal(rv.truth()), nil
			}
		}
		return func() (tval, error) {
			lv, err := l()
			if err != nil {
				return tval{}, err
			}
			rv, err := r()
			if err != nil {
				return tval{}, err
			}
			if lv.isBool || rv.isBool {
				return tval{}, fmt.Errorf("core: %q needs interval operands", op)
			}
			switch op {
			case "overlap":
				iv, ok := lv.iv.Intersect(rv.iv)
				return intervalVal(iv, ok && lv.nonempty && rv.nonempty), nil
			case "extend":
				return intervalVal(lv.iv.Extend(rv.iv), lv.nonempty && rv.nonempty), nil
			case "precede":
				return boolVal(lv.iv.Precedes(rv.iv)), nil
			case "equal":
				return boolVal(lv.iv == rv.iv), nil
			}
			return tval{}, fmt.Errorf("core: unknown temporal operator %q", op)
		}
	}
	return fail[tval](fmt.Errorf("core: unsupported temporal expression %T", x))
}

// tconst compiles a time constant. One of the query's own constants reads
// the value bind parsed for this execution; any other (a DML statement's)
// is parsed against now when it is evaluated.
func (c *compiler) tconst(k *tquel.TConst) tvalFn {
	e, i := c.e, slices.Index(c.e.tconsts, k)
	return func() (tval, error) {
		var tv tconstVal
		if i >= 0 {
			tv = e.tvals[i]
		} else {
			tv.t, tv.err = temporal.Parse(k.Text, temporal.Time(e.now))
		}
		if tv.err != nil {
			return tval{}, tv.err
		}
		return intervalVal(temporal.Event(tv.t), true), nil
	}
}

// validity compiles the valid interval of a retrieve's result tuple: the
// valid clause when present, otherwise the intersection of the named
// variables' valid intervals (TQuel's default). ok is false when the
// interval is empty: the result tuple denotes nothing.
func (c *compiler) validity(v *tquel.ValidClause, vars []string) func() (temporal.Interval, bool, error) {
	if v != nil && v.At != nil {
		at := c.instant(v.At, false)
		return func() (temporal.Interval, bool, error) {
			t, ok, err := at()
			if err != nil || !ok {
				return temporal.Interval{}, false, err
			}
			return temporal.Event(t), true, nil
		}
	}
	if v != nil {
		from, to := c.instant(v.From, false), c.instant(v.To, true)
		return func() (temporal.Interval, bool, error) {
			f, okF, err := from()
			if err != nil {
				return temporal.Interval{}, false, err
			}
			t, okT, err := to()
			if err != nil {
				return temporal.Interval{}, false, err
			}
			iv := temporal.Interval{From: f, To: t}
			return iv, okF && okT && iv.Valid() && !iv.IsEmpty(), nil
		}
	}
	var valid []*binding
	for _, name := range vars {
		if b := c.vars[name]; b.vf >= 0 {
			valid = append(valid, b)
		}
	}
	return func() (temporal.Interval, bool, error) {
		out := temporal.Interval{From: temporal.Beginning, To: temporal.Forever}
		for _, b := range valid {
			var ok bool
			if out, ok = out.Intersect(b.validInterval()); !ok {
				return temporal.Interval{}, false, nil
			}
		}
		return out, len(valid) > 0, nil
	}
}
