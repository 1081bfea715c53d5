package core

import (
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// This file compiles a variable's qualification — the transaction slice,
// the scalar selections, and the temporal selections — into a chain of
// closures specialized against the binding's schema. Attribute indexes are
// resolved once and integer comparisons run directly on the stored bytes.
// The closures read the statement's values when they run — the rollback
// slice, the literal nodes, the time constants bind parsed — so one
// compilation serves every execution of a prepared statement. Every leaf
// qualifies through the compiled form. The interpreted form (passesVar, in
// qual_test.go) is its reference: any expression shape the compiler does
// not specialize falls back to a closure around the interpreter, and a
// seeded property test holds the two to the same tuples and the same
// errors over every admitted shape.

// compiledQual reports whether the tuple bound to the variable qualifies.
// The caller must install the tuple in the variable's binding first: the
// interpreted fallbacks (and cross-variable expressions) read it from the
// environment.
type compiledQual func(tup []byte) (bool, error)

// compileVarQual compiles v's qualification against its current binding.
// The result is only valid while that binding stands — the caller
// recompiles after a detachment swaps the binding.
func (q *query) compileVarQual(v string) compiledQual {
	b := q.env.vars[v]
	qv := q.qv[v]
	var checks []compiledQual
	if b.ts >= 0 {
		sc, ts, te := b.schema, b.ts, b.te
		checks = append(checks, func(tup []byte) (bool, error) {
			return temporal.Time(sc.Int(tup, ts)) <= q.thr &&
				q.at < temporal.Time(sc.Int(tup, te)), nil
		})
	}
	for _, c := range qv.sel {
		checks = append(checks, q.compileBool(v, b, c))
	}
	for _, c := range qv.tsel {
		tc := q.compileT(v, b, c)
		checks = append(checks, func(tup []byte) (bool, error) {
			tv, err := tc(tup)
			if err != nil {
				return false, err
			}
			return tv.truth(), nil
		})
	}
	if len(checks) == 1 {
		return checks[0]
	}
	return func(tup []byte) (bool, error) {
		for _, c := range checks {
			ok, err := c(tup)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
}

// compileBool compiles a where-clause predicate.
func (q *query) compileBool(v string, b *binding, x tquel.Expr) compiledQual {
	switch ex := x.(type) {
	case *tquel.BinaryExpr:
		switch ex.Op {
		case "and":
			l, r := q.compileBool(v, b, ex.L), q.compileBool(v, b, ex.R)
			return func(tup []byte) (bool, error) {
				ok, err := l(tup)
				if err != nil || !ok {
					return false, err
				}
				return r(tup)
			}
		case "or":
			l, r := q.compileBool(v, b, ex.L), q.compileBool(v, b, ex.R)
			return func(tup []byte) (bool, error) {
				ok, err := l(tup)
				if err != nil || ok {
					return ok, err
				}
				return r(tup)
			}
		case "=", "!=", "<", "<=", ">", ">=":
			// Integer fast path: both sides compile to direct int64
			// reads, compared through float64 exactly like
			// tuple.Compare does for numeric values.
			if li, ok := q.compileInt(v, b, ex.L); ok {
				if ri, ok := q.compileInt(v, b, ex.R); ok {
					op := ex.Op
					return func(tup []byte) (bool, error) {
						af, bf := float64(li(tup)), float64(ri(tup))
						switch op {
						case "=":
							return af == bf, nil
						case "!=":
							return af != bf, nil
						case "<":
							return af < bf, nil
						case "<=":
							return af <= bf, nil
						case ">":
							return af > bf, nil
						default:
							return af >= bf, nil
						}
					}
				}
			}
		}
	case *tquel.UnaryExpr:
		if ex.Op == "not" {
			c := q.compileBool(v, b, ex.X)
			return func(tup []byte) (bool, error) {
				ok, err := c(tup)
				return !ok, err
			}
		}
	}
	return func(tup []byte) (bool, error) { return q.env.evalBool(x) }
}

// compileInt compiles an expression to a direct int64 reader when it is
// built purely from integer-kind attributes of v, integer constants, and
// +, -, * (division can error, so it stays interpreted).
func (q *query) compileInt(v string, b *binding, x tquel.Expr) (func(tup []byte) int64, bool) {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		if ex.Val.Kind == tuple.F4 || ex.Val.Kind == tuple.F8 || ex.Val.Kind == tuple.Char {
			return nil, false
		}
		return func([]byte) int64 { return ex.Val.I }, true
	case *tquel.AttrExpr:
		if ex.Var != v {
			return nil, false
		}
		i := b.schema.Index(ex.Attr)
		if i < 0 {
			return nil, false
		}
		switch b.schema.Attr(i).Kind {
		case tuple.I1, tuple.I2, tuple.I4, tuple.Temporal:
		default:
			return nil, false
		}
		sc := b.schema
		return func(tup []byte) int64 { return sc.Int(tup, i) }, true
	case *tquel.UnaryExpr:
		if ex.Op != "-" {
			return nil, false
		}
		c, ok := q.compileInt(v, b, ex.X)
		if !ok {
			return nil, false
		}
		return func(tup []byte) int64 { return -c(tup) }, true
	case *tquel.BinaryExpr:
		l, ok := q.compileInt(v, b, ex.L)
		if !ok {
			return nil, false
		}
		r, ok := q.compileInt(v, b, ex.R)
		if !ok {
			return nil, false
		}
		switch ex.Op {
		case "+":
			return func(tup []byte) int64 { return l(tup) + r(tup) }, true
		case "-":
			return func(tup []byte) int64 { return l(tup) - r(tup) }, true
		case "*":
			return func(tup []byte) int64 { return l(tup) * r(tup) }, true
		}
	}
	return nil, false
}

// tclosure is a compiled temporal expression.
type tclosure func(tup []byte) (tval, error)

// compileT compiles a when-clause expression, mirroring evalT case by
// case. Constants read the value bind parsed; the variable's interval
// attributes are read straight off the tuple.
func (q *query) compileT(v string, b *binding, x tquel.TExpr) tclosure {
	interp := func(tup []byte) (tval, error) { return q.env.evalT(x) }
	switch tx := x.(type) {
	case *tquel.TVar:
		if tx.Var != v || b.vf < 0 {
			return interp
		}
		sc, vf, vt, event := b.schema, b.vf, b.vt, b.event
		return func(tup []byte) (tval, error) {
			var iv temporal.Interval
			if event {
				iv = temporal.Event(temporal.Time(sc.Int(tup, vf)))
			} else {
				iv = temporal.Interval{
					From: temporal.Time(sc.Int(tup, vf)),
					To:   temporal.Time(sc.Int(tup, vt)),
				}
			}
			return intervalVal(iv, iv.Valid() && !iv.IsEmpty()), nil
		}
	case *tquel.TConst:
		return func(tup []byte) (tval, error) {
			t, err := q.env.constTime(tx)
			if err != nil {
				return tval{}, err
			}
			return intervalVal(temporal.Event(t), true), nil
		}
	case *tquel.TUnary:
		c := q.compileT(v, b, tx.X)
		switch tx.Op {
		case "not":
			return func(tup []byte) (tval, error) {
				tv, err := c(tup)
				if err != nil {
					return tval{}, err
				}
				return boolVal(!tv.truth()), nil
			}
		case "start", "end":
			op := tx.Op
			return func(tup []byte) (tval, error) {
				tv, err := c(tup)
				if err != nil {
					return tval{}, err
				}
				if tv.isBool {
					return interp(tup) // surfaces the interpreter's error
				}
				if op == "start" {
					return intervalVal(tv.iv.Start(), tv.nonempty), nil
				}
				return intervalVal(tv.iv.End(), tv.nonempty), nil
			}
		}
		return interp
	case *tquel.TBinary:
		l, r := q.compileT(v, b, tx.L), q.compileT(v, b, tx.R)
		switch tx.Op {
		case "and":
			return func(tup []byte) (tval, error) {
				lv, err := l(tup)
				if err != nil || !lv.truth() {
					return boolVal(false), err
				}
				rv, err := r(tup)
				if err != nil {
					return tval{}, err
				}
				return boolVal(rv.truth()), nil
			}
		case "or":
			return func(tup []byte) (tval, error) {
				lv, err := l(tup)
				if err != nil {
					return tval{}, err
				}
				if lv.truth() {
					return boolVal(true), nil
				}
				rv, err := r(tup)
				if err != nil {
					return tval{}, err
				}
				return boolVal(rv.truth()), nil
			}
		case "overlap", "extend", "precede", "equal":
			op := tx.Op
			return func(tup []byte) (tval, error) {
				lv, err := l(tup)
				if err != nil {
					return tval{}, err
				}
				rv, err := r(tup)
				if err != nil {
					return tval{}, err
				}
				if lv.isBool || rv.isBool {
					return interp(tup) // surfaces the interpreter's error
				}
				switch op {
				case "overlap":
					iv, ok := lv.iv.Intersect(rv.iv)
					return intervalVal(iv, ok && lv.nonempty && rv.nonempty), nil
				case "extend":
					return intervalVal(lv.iv.Extend(rv.iv), lv.nonempty && rv.nonempty), nil
				case "precede":
					return boolVal(lv.iv.Precedes(rv.iv)), nil
				default:
					return boolVal(lv.iv == rv.iv), nil
				}
			}
		}
		return interp
	}
	return interp
}
