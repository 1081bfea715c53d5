package core

import (
	"fmt"

	"tdbms/internal/catalog"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

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

// bindingFor builds a binding template for a relation's stored schema.
func bindingFor(desc *catalog.Relation) *binding {
	return &binding{
		schema: desc.Schema,
		vf:     desc.VF,
		vt:     desc.VT,
		event:  desc.Model == catalog.ModelEvent,
		ts:     desc.TS,
		te:     desc.TE,
		typ:    desc.Type,
	}
}

// bindingForTemp builds a binding for a temporary projection of desc: the
// temp schema carries a subset of the attribute names.
func bindingForTemp(desc *catalog.Relation, tmp *tuple.Schema) *binding {
	find := func(i int) int {
		if i < 0 {
			return -1
		}
		return tmp.Index(desc.Schema.Attr(i).Name)
	}
	return &binding{
		schema: tmp,
		vf:     find(desc.VF),
		vt:     find(desc.VT),
		event:  desc.Model == catalog.ModelEvent,
		ts:     find(desc.TS),
		te:     find(desc.TE),
		typ:    desc.Type,
	}
}

// env is the evaluation context of one query: the bound tuple per range
// variable plus the clock reading for "now". agg holds finalized aggregate
// values during the output phase of an aggregate retrieve.
type env struct {
	vars map[string]*binding
	now  int64 // temporal.Time, kept as int64 to avoid import knots
	// tconsts are the time constants of the query's statement and tvals
	// their values, parsed once per execution against now (bind).
	tconsts []*tquel.TConst
	tvals   []tconstVal
	agg     map[*tquel.AggExpr]tuple.Value
	// byVals maps the rendering of a grouping expression to its value for
	// the group currently being output.
	byVals map[string]tuple.Value
}

func (e *env) binding(v string) (*binding, error) {
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
func (e *env) evalExpr(x tquel.Expr) (tuple.Value, error) {
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

// evalBool evaluates a where-clause predicate.
func (e *env) evalBool(x tquel.Expr) (bool, error) {
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
