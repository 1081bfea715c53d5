package core

import (
	"fmt"

	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// This file is the evaluator's reference: an interpreter that walks the
// AST on every evaluation and resolves each variable, attribute, aggregate
// and time constant by name as it goes — slow, and obviously TQuel's
// semantics. The property test in qual_test.go holds every compiled
// evaluation site (compile.go) to it.

// ref is the reference's evaluation context: an environment and, in the
// output phase of an aggregate retrieve, the finalized aggregates and the
// current group's values by the rendering of its grouping expressions.
type ref struct {
	*env
	agg    map[*tquel.AggExpr]tuple.Value
	byVals map[string]tuple.Value
}

func (e *ref) binding(v string) (*binding, error) {
	b, ok := e.vars[v]
	if !ok {
		return nil, fmt.Errorf("core: range variable %q is not part of this query", v)
	}
	if b.tup == nil {
		return nil, fmt.Errorf("core: range variable %q is not bound", v)
	}
	return b, nil
}

// evalExpr evaluates a scalar expression against the bound tuples (or, in
// the output phase of a grouped aggregate, against the group's values).
func (e *ref) evalExpr(x tquel.Expr) (tuple.Value, error) {
	if e.byVals != nil {
		if v, ok := e.byVals[x.String()]; ok {
			return v, nil
		}
	}
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		return ex.Val, nil
	case *tquel.AttrExpr:
		b, err := e.binding(ex.Var)
		if err != nil {
			return tuple.Value{}, err
		}
		i := b.schema.Index(ex.Attr)
		if i < 0 {
			return tuple.Value{}, fmt.Errorf("core: %s has no attribute %q", ex.Var, ex.Attr)
		}
		return b.schema.Value(b.tup, i), nil
	case *tquel.UnaryExpr:
		if ex.Op == "-" {
			v, err := e.evalExpr(ex.X)
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
		return tuple.Value{}, fmt.Errorf("core: predicate %q used as a value", ex.Op)
	case *tquel.BinaryExpr:
		switch ex.Op {
		case "+", "-", "*", "/":
			l, err := e.evalExpr(ex.L)
			if err != nil {
				return tuple.Value{}, err
			}
			r, err := e.evalExpr(ex.R)
			if err != nil {
				return tuple.Value{}, err
			}
			return arith(ex.Op, l, r)
		}
		return tuple.Value{}, fmt.Errorf("core: predicate %q used as a value", ex.Op)
	case *tquel.TAttrExpr:
		tv, err := e.evalT(ex.X)
		if err != nil {
			return tuple.Value{}, err
		}
		if tv.isBool {
			return tuple.Value{}, fmt.Errorf("core: %s of a predicate", ex.End)
		}
		if ex.End == "end" {
			if tv.iv.IsEvent() {
				return tuple.TemporalValue(int64(tv.iv.From)), nil
			}
			return tuple.TemporalValue(int64(tv.iv.To)), nil
		}
		return tuple.TemporalValue(int64(tv.iv.From)), nil
	case *tquel.AggExpr:
		if v, ok := e.agg[ex]; ok {
			return v, nil
		}
		return tuple.Value{}, fmt.Errorf("core: aggregate %s(...) is allowed only in retrieve target lists", ex.Fn)
	}
	return tuple.Value{}, fmt.Errorf("core: unsupported expression %T", x)
}

// evalBool evaluates a where-clause predicate (nil means true).
func (e *ref) evalBool(x tquel.Expr) (bool, error) {
	if x == nil {
		return true, nil
	}
	switch ex := x.(type) {
	case *tquel.BinaryExpr:
		switch ex.Op {
		case "and":
			l, err := e.evalBool(ex.L)
			if err != nil || !l {
				return false, err
			}
			return e.evalBool(ex.R)
		case "or":
			l, err := e.evalBool(ex.L)
			if err != nil || l {
				return l, err
			}
			return e.evalBool(ex.R)
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := e.evalExpr(ex.L)
			if err != nil {
				return false, err
			}
			r, err := e.evalExpr(ex.R)
			if err != nil {
				return false, err
			}
			c, err := tuple.Compare(l, r)
			if err != nil {
				return false, err
			}
			switch ex.Op {
			case "=":
				return c == 0, nil
			case "!=":
				return c != 0, nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			case ">=":
				return c >= 0, nil
			}
		}
		return false, fmt.Errorf("core: value expression %q used as a predicate", ex.Op)
	case *tquel.UnaryExpr:
		if ex.Op == "not" {
			v, err := e.evalBool(ex.X)
			return !v, err
		}
		return false, fmt.Errorf("core: value expression used as a predicate")
	}
	return false, fmt.Errorf("core: expression %s is not a predicate", x)
}

// txInterval extracts the transaction-time interval of a bound variable;
// ok is false when the relation does not record transaction time.
func (b *binding) txInterval() (temporal.Interval, bool) {
	if b.ts < 0 {
		return temporal.Interval{}, false
	}
	return temporal.Interval{
		From: temporal.Time(b.schema.Int(b.tup, b.ts)),
		To:   temporal.Time(b.schema.Int(b.tup, b.te)),
	}, true
}

// evalT evaluates a temporal expression.
func (e *ref) evalT(x tquel.TExpr) (tval, error) {
	switch tx := x.(type) {
	case *tquel.TVar:
		b, err := e.binding(tx.Var)
		if err != nil {
			return tval{}, err
		}
		if b.vf < 0 {
			return tval{}, fmt.Errorf("core: %s relation has no valid time (when/valid clauses are not applicable; use `as of` for rollback relations)", b.typ)
		}
		var iv temporal.Interval
		if b.event {
			iv = temporal.Event(temporal.Time(b.schema.Int(b.tup, b.vf)))
		} else {
			iv = temporal.Interval{
				From: temporal.Time(b.schema.Int(b.tup, b.vf)),
				To:   temporal.Time(b.schema.Int(b.tup, b.vt)),
			}
		}
		return intervalVal(iv, iv.Valid() && !iv.IsEmpty()), nil
	case *tquel.TConst:
		t, err := e.constTime(tx)
		if err != nil {
			return tval{}, err
		}
		return intervalVal(temporal.Event(t), true), nil
	case *tquel.TUnary:
		switch tx.Op {
		case "not":
			v, err := e.evalT(tx.X)
			if err != nil {
				return tval{}, err
			}
			return boolVal(!v.truth()), nil
		case "start", "end":
			v, err := e.evalT(tx.X)
			if err != nil {
				return tval{}, err
			}
			if v.isBool {
				return tval{}, fmt.Errorf("core: %s of a predicate", tx.Op)
			}
			if tx.Op == "start" {
				return intervalVal(v.iv.Start(), v.nonempty), nil
			}
			return intervalVal(v.iv.End(), v.nonempty), nil
		}
		return tval{}, fmt.Errorf("core: unknown temporal operator %q", tx.Op)
	case *tquel.TBinary:
		switch tx.Op {
		case "and":
			l, err := e.evalT(tx.L)
			if err != nil || !l.truth() {
				return boolVal(false), err
			}
			r, err := e.evalT(tx.R)
			if err != nil {
				return tval{}, err
			}
			return boolVal(r.truth()), nil
		case "or":
			l, err := e.evalT(tx.L)
			if err != nil {
				return tval{}, err
			}
			if l.truth() {
				return boolVal(true), nil
			}
			r, err := e.evalT(tx.R)
			if err != nil {
				return tval{}, err
			}
			return boolVal(r.truth()), nil
		}
		l, err := e.evalT(tx.L)
		if err != nil {
			return tval{}, err
		}
		r, err := e.evalT(tx.R)
		if err != nil {
			return tval{}, err
		}
		if l.isBool || r.isBool {
			return tval{}, fmt.Errorf("core: %q needs interval operands", tx.Op)
		}
		switch tx.Op {
		case "overlap":
			iv, ok := l.iv.Intersect(r.iv)
			return intervalVal(iv, ok && l.nonempty && r.nonempty), nil
		case "extend":
			return intervalVal(l.iv.Extend(r.iv), l.nonempty && r.nonempty), nil
		case "precede":
			return boolVal(l.iv.Precedes(r.iv)), nil
		case "equal":
			return boolVal(l.iv == r.iv), nil
		}
		return tval{}, fmt.Errorf("core: unknown temporal operator %q", tx.Op)
	}
	return tval{}, fmt.Errorf("core: unsupported temporal expression %T", x)
}

// constTime is the value of a time constant: the one bound for this
// execution when the constant is the query's own, else a parse against
// now (DML valid clauses and targets).
func (e *ref) constTime(c *tquel.TConst) (temporal.Time, error) {
	for i, k := range e.tconsts {
		if k == c {
			return e.tvals[i].t, e.tvals[i].err
		}
	}
	return temporal.Parse(c.Text, temporal.Time(e.now))
}

// evalTBool evaluates a when-clause (nil means true).
func (e *ref) evalTBool(x tquel.TExpr) (bool, error) {
	if x == nil {
		return true, nil
	}
	v, err := e.evalT(x)
	if err != nil {
		return false, err
	}
	return v.truth(), nil
}

// evalTEvent evaluates a temporal expression expected to denote an instant
// (valid-from endpoints, as-of constants). Interval-valued results
// contribute their start; ok reports non-emptiness.
func (e *ref) evalTEvent(x tquel.TExpr) (temporal.Time, bool, error) {
	v, err := e.evalT(x)
	if err != nil {
		return 0, false, err
	}
	if v.isBool {
		return 0, false, fmt.Errorf("core: predicate used where an instant is required")
	}
	return v.iv.From, v.nonempty, nil
}

// evalTEnd evaluates a temporal expression in a valid-to position: an event
// denotes its instant (its From, since events occupy [t, t+1)); a wider
// interval coerces to its end instant.
func (e *ref) evalTEnd(x tquel.TExpr) (temporal.Time, bool, error) {
	v, err := e.evalT(x)
	if err != nil {
		return 0, false, err
	}
	if v.isBool {
		return 0, false, fmt.Errorf("core: predicate used where an instant is required")
	}
	if v.iv.IsEvent() || v.iv.IsEmpty() {
		return v.iv.From, v.nonempty, nil
	}
	return v.iv.To, v.nonempty, nil
}
