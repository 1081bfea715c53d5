package core

import (
	"fmt"

	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

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

// validInterval extracts the valid-time interval of a bound variable.
func (b *binding) validInterval() (temporal.Interval, error) {
	if b.vf < 0 {
		return temporal.Interval{}, fmt.Errorf("core: %s relation has no valid time (when/valid clauses are not applicable; use `as of` for rollback relations)", b.typ)
	}
	if b.event {
		return temporal.Event(temporal.Time(b.schema.Int(b.tup, b.vf))), nil
	}
	return temporal.Interval{
		From: temporal.Time(b.schema.Int(b.tup, b.vf)),
		To:   temporal.Time(b.schema.Int(b.tup, b.vt)),
	}, nil
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
func (e *env) evalT(x tquel.TExpr) (tval, error) {
	switch tx := x.(type) {
	case *tquel.TVar:
		b, err := e.binding(tx.Var)
		if err != nil {
			return tval{}, err
		}
		iv, err := b.validInterval()
		if err != nil {
			return tval{}, err
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

// tconstVal is a time constant parsed for one execution.
type tconstVal struct {
	t   temporal.Time
	err error
}

// constTime is the value of a time constant: the one bound for this
// execution when the constant is the query's own, else a parse against
// now (DML valid clauses and targets).
func (e *env) constTime(c *tquel.TConst) (temporal.Time, error) {
	for i, k := range e.tconsts {
		if k == c {
			return e.tvals[i].t, e.tvals[i].err
		}
	}
	return temporal.Parse(c.Text, temporal.Time(e.now))
}

// evalTBool evaluates a when-clause (nil means true).
func (e *env) evalTBool(x tquel.TExpr) (bool, error) {
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
func (e *env) evalTEvent(x tquel.TExpr) (temporal.Time, bool, error) {
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
func (e *env) evalTEnd(x tquel.TExpr) (temporal.Time, bool, error) {
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
