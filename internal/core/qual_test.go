package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/catalog"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// This file holds the evaluator (compile.go) to its reference, the
// interpreter in eval_test.go, at every site the engine evaluates an
// expression. Below are the interpreted forms of the sites themselves:
// the leaf qualification (passesVar, txVisible), the Filter's residual,
// the result validity, and a DML statement's target values and valid
// interval.

// txVisible applies the rollback slice to a bound variable.
func (q *query) txVisible(v string) bool {
	b := q.env.vars[v]
	iv, ok := b.txInterval()
	if !ok {
		return true // no transaction time: as-of does not apply
	}
	return iv.From <= q.thr && temporal.Time(q.at) < iv.To
}

// passesVar checks a variable's own selections (scalar, temporal, slice)
// for the currently bound tuple.
func (q *query) passesVar(v string) (bool, error) {
	if !q.txVisible(v) {
		return false, nil
	}
	e := &ref{env: q.env}
	qv := q.qv[v]
	for _, c := range qv.sel {
		ok, err := e.evalBool(c)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, c := range qv.tsel {
		ok, err := e.evalTBool(c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// pass applies a leaf qualification to tup as a leaf does: the ranges on
// the stored bytes, then the rest over b bound to tup.
func (l *leafQual) pass(b *binding, tup []byte) (bool, error) {
	if !am.Within(l.ranges, tup) {
		return false, nil
	}
	if l.rest == nil {
		return true, nil
	}
	b.tup = tup
	return l.rest()
}

// residual re-checks the full where and when clauses over a complete
// binding.
func (e *ref) residual(s *tquel.RetrieveStmt) (bool, error) {
	if ok, err := e.evalBool(s.Where); err != nil || !ok {
		return false, err
	}
	return e.evalTBool(s.When)
}

// resultValidity computes the valid interval of the result tuple: the valid
// clause when present, otherwise the intersection of the participating
// variables' valid intervals (TQuel's default).
func (e *ref) resultValidity(s *tquel.RetrieveStmt, vars []string) (temporal.Interval, bool, error) {
	if s.Valid != nil {
		if s.Valid.At != nil {
			at, ok, err := e.evalTEvent(s.Valid.At)
			if err != nil || !ok {
				return temporal.Interval{}, false, err
			}
			return temporal.Event(at), true, nil
		}
		from, okF, err := e.evalTEvent(s.Valid.From)
		if err != nil {
			return temporal.Interval{}, false, err
		}
		to, okT, err := e.evalTEnd(s.Valid.To)
		if err != nil {
			return temporal.Interval{}, false, err
		}
		iv := temporal.Interval{From: from, To: to}
		return iv, okF && okT && iv.Valid() && !iv.IsEmpty(), nil
	}
	have := false
	out := temporal.Interval{From: temporal.Beginning, To: temporal.Forever}
	for _, v := range vars {
		b := e.vars[v]
		if b.vf < 0 {
			continue
		}
		var ok bool
		out, ok = out.Intersect(b.validInterval())
		if !ok {
			return temporal.Interval{}, false, nil
		}
		have = true
	}
	return out, have, nil
}

// applyTargets builds a new user-attribute image from a base tuple and a
// DML target list.
func (e *ref) applyTargets(desc *catalog.Relation, base []byte, targets []tquel.Target) ([]byte, error) {
	out := make([]byte, len(base))
	copy(out, base)
	for _, t := range targets {
		i := desc.Schema.Index(t.Name)
		if i < 0 || i >= desc.NumUserAttrs {
			return nil, fmt.Errorf("core: %s has no user attribute %q (implicit time attributes are set via the valid clause)", desc.Name, t.Name)
		}
		v, err := e.evalExpr(t.Expr)
		if err != nil {
			return nil, err
		}
		if err := desc.Schema.SetValue(out, i, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newValidity resolves a DML valid clause for a new version of desc with
// the Section 4 defaults: valid from now to "forever" (interval relations)
// or valid at now (event relations).
func (e *ref) newValidity(desc *catalog.Relation, v *tquel.ValidClause, now temporal.Time) (temporal.Interval, error) {
	if desc.VF < 0 {
		if v != nil {
			return temporal.Interval{}, fmt.Errorf("core: %s relation %s takes no valid clause", desc.Type, desc.Name)
		}
		return temporal.Interval{}, nil
	}
	if desc.Model == catalog.ModelEvent {
		at := now
		if v != nil {
			if v.At == nil {
				return temporal.Interval{}, fmt.Errorf("core: event relations take `valid at`, not `valid from/to`")
			}
			var err error
			if at, _, err = e.evalTEvent(v.At); err != nil {
				return temporal.Interval{}, err
			}
		}
		return temporal.Interval{From: at, To: at}, nil
	}
	from, to := now, temporal.Forever
	if v != nil {
		if v.At != nil {
			return temporal.Interval{}, fmt.Errorf("core: interval relations take `valid from ... to ...`, not `valid at`")
		}
		var err error
		if from, _, err = e.evalTEvent(v.From); err != nil {
			return temporal.Interval{}, err
		}
		if to, _, err = e.evalTEnd(v.To); err != nil {
			return temporal.Interval{}, err
		}
		if from > to {
			return temporal.Interval{}, fmt.Errorf("core: valid interval ends (%s) before it starts (%s)", to, from)
		}
	}
	return temporal.Interval{From: from, To: to}, nil
}

// qualGen draws predicates from every shape the parser and analyzer admit
// as a single-variable restriction, and the target lists, valid clauses
// and DML statements around them.
type qualGen struct {
	rng   *rand.Rand
	times []string // quoted time constants around the data
}

func (g *qualGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// scalar draws a value expression over v.
func (g *qualGen) scalar(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch n := g.rng.Intn(60); {
		case n == 0:
			return v + ".nope" // no such attribute
		case n == 1:
			return g.pick(`"ab"`, v+".s") // arithmetic on strings
		case n < 8:
			return g.pick("0.5", "2.0", "3.25")
		case n < 14:
			return v + "." + g.pick("f", "g")
		case n < 18:
			return g.pick("start of ", "end of ") + g.ival(v, 1)
		case n < 30:
			return g.pick("0", "1", "2", "3", "7", "100")
		default:
			return v + "." + g.pick("a", "b", "c", "d") // i1, i2, i4, temporal
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return "-" + g.scalar(v, depth-1)
	case 1:
		return "(" + g.scalar(v, depth-1) + ")"
	default:
		return g.scalar(v, depth-1) + " " + g.pick("+", "-", "*", "/") + " " + g.scalar(v, depth-1)
	}
}

// bound draws a comparison of one of v's integer attributes with an integer
// literal, on either side of the operator: a conjunct a leaf tests as a
// range, with the literal at a boundary of the attribute widths, of exact
// float64 integers or of int64.
func (g *qualGen) bound(v string) string {
	lit := g.pick("0", "1", "-1", "127", "-128", "32767", "-32768", "2147483647", "-2147483648",
		"2147483648", "9007199254740991", "9007199254740993", "-9007199254740993",
		"9223372036854775807", "-9223372036854775807", "2", "-3", "-300", "7")
	attr := v + "." + g.pick("a", "b", "c", "d")
	op := g.pick("=", "<", "<=", ">", ">=")
	if g.rng.Intn(2) == 0 {
		return lit + " " + op + " " + attr
	}
	return attr + " " + op + " " + lit
}

// where draws a where-clause predicate over v.
func (g *qualGen) where(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		if g.rng.Intn(4) == 0 {
			return g.bound(v)
		}
		op := g.pick("=", "!=", "<", "<=", ">", ">=")
		if g.rng.Intn(10) == 0 {
			return v + ".s " + op + " " + g.pick(`"ab"`, `"abc"`, `""`, v+".s", "3")
		}
		return g.scalar(v, 2) + " " + op + " " + g.scalar(v, 2)
	}
	switch g.rng.Intn(5) {
	case 0:
		return "not " + g.where(v, depth-1)
	case 1:
		return "(" + g.where(v, depth-1) + " or " + g.where(v, depth-1) + ")"
	case 2:
		return "(" + g.where(v, depth-1) + ")"
	case 3:
		// A conjunct that fails, before or after one a leaf absorbs.
		fail := g.pick(v+".c / 0 = 1", v+".nope = 1")
		if g.rng.Intn(2) == 0 {
			return fail + " and " + g.bound(v)
		}
		return g.bound(v) + " and " + fail
	default:
		return g.where(v, depth-1) + " and " + g.where(v, depth-1)
	}
}

// ival draws an interval-valued temporal term over v — or, now and then, a
// predicate where an interval belongs, which both evaluators must reject
// alike.
func (g *qualGen) ival(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		switch n := g.rng.Intn(24); {
		case n == 0:
			return `"not a time"`
		case n < 4:
			return `"now"`
		case n < 12:
			return g.times[g.rng.Intn(len(g.times))]
		default:
			return v
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.pick("start of ", "end of ") + g.ival(v, depth-1)
	case 1:
		return "(" + g.ival(v, depth-1) + " overlap " + g.ival(v, depth-1) + ")"
	case 2:
		return "(" + g.ival(v, depth-1) + " extend " + g.ival(v, depth-1) + ")"
	case 3:
		return "(" + g.when(v, depth-1) + ")"
	default:
		return g.ival(v, depth-1)
	}
}

// when draws a when-clause predicate over v.
func (g *qualGen) when(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		return g.ival(v, 2) + " " + g.pick("overlap", "precede", "equal", "extend") + " " + g.ival(v, 2)
	}
	switch g.rng.Intn(5) {
	case 0:
		return "not " + g.when(v, depth-1)
	case 1:
		return "(" + g.when(v, depth-1) + " or " + g.when(v, depth-1) + ")"
	case 2:
		return g.ival(v, 2) // an interval in predicate position: non-empty
	case 3:
		// Parenthesized, or the analyzer splits the conjuncts apart.
		return "(" + g.when(v, depth-1) + " and " + g.when(v, depth-1) + ")"
	default:
		return g.when(v, depth-1) + " and " + g.when(v, depth-1)
	}
}

// targets draws a retrieve's target list over vars: value expressions, or
// aggregates sharing one by-list, beside a grouping expression and a
// target mixing an aggregate with tuple attributes.
func (g *qualGen) targets(vars []string) (list string, aggregate bool) {
	v := func() string { return vars[g.rng.Intn(len(vars))] }
	var ts []string
	if g.rng.Intn(3) > 0 {
		for i := 0; i <= g.rng.Intn(3); i++ {
			ts = append(ts, fmt.Sprintf("t%d = %s", i, g.scalar(v(), 2)))
		}
		return strings.Join(ts, ", "), false
	}
	var by []string
	for i := g.rng.Intn(3); i > 0; i-- {
		by = append(by, g.scalar(v(), 1))
	}
	byList := ""
	if len(by) > 0 {
		byList = " by " + strings.Join(by, ", ")
	}
	agg := func() string {
		return g.pick("count", "any", "sum", "avg", "min", "max") + "(" + g.scalar(v(), 1) + byList + ")"
	}
	for i := 0; i <= g.rng.Intn(2); i++ {
		ts = append(ts, fmt.Sprintf("a%d = %s", i, agg()))
	}
	if len(by) > 0 && g.rng.Intn(2) == 0 {
		ts = append(ts, "k = "+by[g.rng.Intn(len(by))])
	}
	if g.rng.Intn(3) == 0 {
		ts = append(ts, "m = "+agg()+" "+g.pick("+", "-", "*")+" "+g.scalar(v(), 1))
	}
	return strings.Join(ts, ", "), true
}

// valid draws a retrieve's valid clause over vars, or none.
func (g *qualGen) valid(vars []string) string {
	v := func() string { return vars[g.rng.Intn(len(vars))] }
	switch g.rng.Intn(4) {
	case 0:
		return " valid at " + g.ival(v(), 1)
	case 1:
		return " valid from " + g.ival(v(), 1) + " to " + g.ival(v(), 1)
	}
	return ""
}

// replace draws a replace of x: assignments to x's user attributes, now
// and then to a name that is none, and a valid clause of either form.
func (g *qualGen) replace() string {
	var ts []string
	for i := 0; i <= g.rng.Intn(3); i++ {
		name := g.pick("a", "b", "c", "d", "f", "g", "s", "nope", catalog.AttrValidFrom)
		val := g.scalar("x", 2)
		if name == "s" && g.rng.Intn(2) == 0 {
			val = g.pick(`"zz"`, "x.s")
		}
		ts = append(ts, name+" = "+val)
	}
	src := "replace x (" + strings.Join(ts, ", ") + ")"
	switch g.rng.Intn(3) {
	case 0:
		src += " valid at " + g.ival("x", 1)
	case 1:
		src += " valid from " + g.ival("x", 1) + " to " + g.ival("x", 1)
	}
	return src
}

// qualDB builds one relation of every type over the same attributes and
// drives each through appends, replaces and deletes at distinct times, so
// transaction and valid intervals, open, closed and empty, all occur. It
// returns the instants the statements ran at — the stored interval
// endpoints — quoted, with a few instants between them.
func qualDB(t *testing.T, rng *rand.Rand) (*Database, []string, []string) {
	t.Helper()
	db := MustOpen(Options{Now: epoch})
	rels := []string{"qs", "qr", "qh", "qe", "qt", "qv"}
	const attrs = `(a = i1, b = i2, c = i4, d = temporal, f = f4, g = f8, s = c8)`
	mustExec(t, db, `create qs `+attrs+`
		create persistent qr `+attrs+`
		create interval qh `+attrs+`
		create event qe `+attrs+`
		create persistent interval qt `+attrs+`
		create persistent event qv `+attrs)
	row := func() string {
		return fmt.Sprintf(`a = %d, b = %d, c = %d, d = %d, f = %g, g = %g, s = "%s"`,
			rng.Intn(7)-3, rng.Intn(601)-300, rng.Intn(12), int64(epoch)+int64(rng.Intn(4000)),
			float64(rng.Intn(9))/2, float64(rng.Intn(9))/4-1, []string{"", "ab", "abc", "zz"}[rng.Intn(4)])
	}
	var times []string
	for _, rel := range rels {
		mustExec(t, db, fmt.Sprintf("range of x is %s", rel))
		interval := rel == "qh" || rel == "qt"
		for step := 0; step < 30; step++ {
			db.Clock().Advance(int64(rng.Intn(200) + 1))
			at := fmt.Sprintf("%q", temporal.Format(db.Clock().Now(), temporal.Second))
			n := rng.Intn(8)
			if (n < 4 && rng.Intn(2) == 0) || rng.Intn(8) == 0 {
				times = append(times, at, fmt.Sprintf("%q", temporal.Format(db.Clock().Now()-temporal.Time(rng.Intn(3)), temporal.Second)))
			}
			switch {
			case n < 2:
				mustExec(t, db, fmt.Sprintf(`replace x (b = x.b + 1) where x.c = %d`, rng.Intn(12)))
			case n < 4:
				mustExec(t, db, fmt.Sprintf(`delete x where x.c = %d and x.a = %d`, rng.Intn(12), rng.Intn(7)-3))
			case n == 4 && interval:
				// Valid over no instant at all.
				mustExec(t, db, fmt.Sprintf(`append to %s (%s) valid from %s to %s`, rel, row(), at, at))
			default:
				mustExec(t, db, fmt.Sprintf(`append to %s (%s)`, rel, row()))
			}
		}
	}
	// A loaded version may carry any interval: one valid over a reversed
	// interval, ending before it starts.
	now := int64(db.Clock().Now())
	user := []tuple.Value{tuple.IntValue(1), tuple.IntValue(2), tuple.IntValue(3),
		tuple.TemporalValue(now), tuple.FloatValue(0.5), tuple.FloatValue(1), tuple.StrValue("ab")}
	for _, l := range []struct {
		rel      string
		implicit []int64
	}{
		{"qh", []int64{now - 50, now - 150}},
		{"qt", []int64{now - 300, int64(temporal.Forever), now - 50, now - 150}},
	} {
		row := slices.Clone(user)
		for _, t := range l.implicit {
			row = append(row, tuple.TemporalValue(t))
		}
		if _, err := db.Load(l.rel, [][]tuple.Value{row}); err != nil {
			t.Fatal(err)
		}
	}
	db.Clock().Advance(100)
	return db, rels, times
}

// side is a variable's tuples under one of its bindings: its relation's,
// or a temporary projection's after a detachment.
type side struct {
	b    *binding
	tups [][]byte
}

// outcomes tallies, per evaluation site, the evaluations that produced a
// value and those that failed alike.
type outcomes map[string]*[2]int

// same fails the test unless a compiled site and the reference produced
// equal values or the same error. Beside an error the value means
// nothing; no caller reads it.
func (o outcomes) same(t *testing.T, site, ctx string, got, want any, gerr, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || (werr == nil && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s, %s:\ncompiled  (%v, %v)\nreference (%v, %v)", site, ctx, got, gerr, want, werr)
	}
	if o[site] == nil {
		o[site] = new([2]int)
	}
	if werr != nil {
		o[site][1]++
	} else {
		o[site][0]++
	}
}

// TestCompiledQualMatchesInterpreter is the property that lets the
// interpreter leave the engine: over seeded random statements of every
// admitted shape, on every relation type, each compiled evaluation site
// produces exactly the reference's values and fails with the same errors.
// The leaf qualification (compileVarQual against passesVar) is checked on
// the relation's own binding and again after a detachment swapped it for a
// temporary projection's. So are the sites over complete bindings — the
// Filter's two-variable residual, the target list, the result validity,
// aggregate arguments, grouping expressions and the aggregate output
// phase — with either variable detached. The as-of clause is checked
// where bind runs it, and a replace's target values and valid interval
// over each candidate, and over no bindings as an append's.
func TestCompiledQualMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db, rels, times := qualDB(t, rng)
	g := &qualGen{rng: rng, times: times}
	c := db.DefaultSession()
	o := outcomes{}

	var accepted, rejected, failed, swapped, ranged, whole int
	for n := 0; n < 1500; n++ {
		mustExec(t, db, fmt.Sprintf("range of x is %s\nrange of y is %s",
			rels[rng.Intn(len(rels))], rels[rng.Intn(len(rels))]))
		vars := []string{"x"}
		where := g.where("x", 2)
		if rng.Intn(3) == 0 {
			// A second variable: the analyzer has to split the conjuncts,
			// and the join equality belongs to neither.
			vars = append(vars, "y")
			where = g.where("x", 1) + " and x.c = y.c and " + g.where("y", 1)
		}
		targets, aggregate := g.targets(vars)
		src := "retrieve (" + targets + ")"
		if !aggregate {
			src += g.valid(vars)
		}
		src += " where " + where
		if rng.Intn(2) == 0 {
			whens := make([]string, len(vars))
			for i, v := range vars {
				whens[i] = g.when(v, 2)
			}
			src += " when " + strings.Join(whens, " and ")
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			src += " as of " + g.times[rng.Intn(len(g.times))]
			if rng.Intn(2) == 0 {
				src += " through " + g.pick(`"now"`, `"forever"`)
			}
		case 3:
			// Any instant term, of a variable of the query or not.
			src += " as of " + g.ival(g.pick("x", "y"), 1)
		}
		src += "\n\n" + g.replace()
		stmts, err := tquel.ParseAll(src)
		if err != nil {
			t.Fatalf("generator produced unparsable TQuel: %v\n%s", err, src)
		}
		stmt, rs := stmts[0].(*tquel.RetrieveStmt), stmts[1].(*tquel.ReplaceStmt)
		_, err = c.run(stmt, func() (*Result, error) {
			q, err := c.newQuery(stmt)
			if err != nil {
				return nil, err
			}
			berr := c.bind(q)
			if a := stmt.AsOf; a != nil {
				// Bind ran the compiled clause over fresh bindings.
				r := &ref{env: q.env}
				for _, p := range []struct {
					f instantFn
					x tquel.TExpr
				}{{q.asOf, a.At}, {q.through, a.Through}} {
					if p.x == nil {
						continue
					}
					gt, gok, gerr := p.f()
					wt, wok, werr := r.evalTEvent(p.x)
					o.same(t, "as-of", src, [2]any{gt, gok}, [2]any{wt, wok}, gerr, werr)
				}
			}
			if berr != nil {
				return &Result{}, nil // a bad as-of clause: nothing to qualify
			}
			vars := q.vars // x drops out when nothing names it
			if len(vars) == 0 {
				return &Result{}, nil
			}

			sides := map[string][2]side{}
			for _, v := range vars {
				h := q.qv[v].h
				rel := side{b: q.env.vars[v], tups: scanAll(t, h)}
				check := func(where string, s side) {
					cq := q.compileVarQual(v)
					cq.fill()
					if len(cq.ranges) > 2 || (len(cq.ranges) > 0 && s.b.ts < 0) {
						ranged++
					}
					if cq.rest == nil {
						whole++
					}
					for _, tup := range s.tups {
						s.b.tup = tup
						want, werr := q.passesVar(v)
						got, gerr := cq.pass(s.b, tup)
						o.same(t, "leaf", fmt.Sprintf("%s on %s, %s binding, tuple %x", src, h.desc.Name, where, tup),
							got, want, gerr, werr)
						switch {
						case werr != nil:
							failed++
						case want:
							accepted++
						default:
							rejected++
						}
					}
				}
				check("relation", rel)

				// Detach by hand: the variable now ranges over a projection
				// (usually of the attributes the statement needs, sometimes
				// of fewer, so lookups fail), with its restrictions kept —
				// more than the engine, which marks them consumed, asks of
				// the recompiled qualification.
				d := h.desc
				var idx []int
				need := map[string]bool{}
				for _, name := range q.neededAttrs(v) {
					need[name] = true
				}
				for i := 0; i < d.NumUserAttrs; i++ {
					name := strings.ToLower(d.Schema.Attr(i).Name)
					if (need[name] && rng.Intn(8) > 0) || rng.Intn(4) == 0 {
						idx = append(idx, i)
					}
				}
				// The implicit time attributes travel in pairs, as
				// neededAttrs projects them.
				if d.VF >= 0 && rng.Intn(8) > 0 {
					idx = append(idx, d.VF)
					if d.VT != d.VF {
						idx = append(idx, d.VT)
					}
				}
				if d.TS >= 0 && rng.Intn(2) == 0 {
					idx = append(idx, d.TS, d.TE)
				}
				if len(idx) == 0 {
					idx = []int{0}
				}
				tmpSchema := d.Schema.Project(idx, nil)
				tmp := side{b: bindingFor(d, tmpSchema)}
				for _, tup := range rel.tups {
					out := tmpSchema.NewTuple()
					for i, srcIdx := range idx {
						if err := tmpSchema.SetValue(out, i, d.Schema.Value(tup, srcIdx)); err != nil {
							return nil, err
						}
					}
					tmp.tups = append(tmp.tups, out)
				}
				q.env.vars[v] = tmp.b
				check("temporary", tmp)
				q.env.vars[v] = rel.b
				swapped++
				sides[v] = [2]side{rel, tmp}
			}

			// The sites over complete bindings, first over the relations,
			// then with one or both variables detached.
			for _, mask := range []int{0, 1 + rng.Intn(1<<len(vars)-1)} {
				pick := make([]side, len(vars))
				for i, v := range vars {
					pick[i] = sides[v][mask>>i&1]
				}
				checkSites(t, o, c, q, rs, pick, mask != 0, rng, src)
			}
			return &Result{}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	t.Logf("leaf: %d accepted, %d rejected, %d failed alike, %d bindings swapped; %d leaves absorbed a conjunct, %d had no residual",
		accepted, rejected, failed, swapped, ranged, whole)
	if accepted == 0 || rejected == 0 || failed == 0 || swapped == 0 || ranged == 0 || whole == 0 {
		t.Fatal("the generator no longer reaches every leaf outcome")
	}
	for _, site := range []string{"leaf", "as-of", "residual", "target", "validity",
		"aggregate argument", "grouping", "aggregate output", "replace targets", "replace validity",
		"append targets", "append validity"} {
		n := o[site]
		if n == nil {
			n = new([2]int)
		}
		t.Logf("%s: %d values, %d errors alike", site, n[0], n[1])
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("the generator no longer reaches both outcomes at the %s site", site)
		}
	}
}

// checkSites compares the compiled sites of one statement over complete
// bindings — pick holds, for each of the query's variables in order, its
// relation binding or its temporary's, and its tuples under that binding —
// against the reference, over the variables' tuples (all of them for one
// variable, a sample of the pairs for two). Over the relations it also
// checks the replace rs of x.
func checkSites(t *testing.T, o outcomes, c *Conn, q *query, rs *tquel.ReplaceStmt,
	pick []side, detached bool, rng *rand.Rand, src string) {
	t.Helper()
	s, vars := q.stmt, q.vars
	vs := map[string]*binding{}
	for i, v := range vars {
		vs[v] = pick[i].b
	}
	r := &ref{env: &env{vars: vs, now: q.env.now, tconsts: q.env.tconsts, tvals: q.env.tvals}}
	out := &emitter{q: q}
	if out.prepare() != nil {
		out = nil // rejected before it could run
	} else {
		out.compile(vs)
	}
	var build func([]byte) ([]byte, error)
	var validity, noValidity func() (temporal.Interval, error)
	var appendBuild func([]byte) ([]byte, error)
	xi := slices.Index(vars, "x")
	dml := !detached && xi >= 0
	var h *relHandle
	if dml {
		h = q.qv["x"].h
		comp := &compiler{e: q.env, vars: vs}
		build, validity = comp.targets(h.desc, rs.Targets), c.newValidity(h, rs.Valid, comp)
		none := &compiler{e: q.env}
		appendBuild, noValidity = none.targets(h.desc, rs.Targets), c.newValidity(h, rs.Valid, none)
	}
	mode := "relation"
	if detached {
		mode = "detached"
	}

	// combos are the tuple indexes of each variable to bind together.
	var combos [][]int
	for i := range pick[0].tups {
		if len(vars) == 1 {
			combos = append(combos, []int{i})
			continue
		}
		for range 2 {
			if n := len(pick[1].tups); n > 0 {
				combos = append(combos, []int{i, rng.Intn(n)})
			}
		}
	}
	// output runs the aggregate output phase over whatever is bound, with
	// made-up aggregate values and the grouping values in byVals.
	output := func(ctx string, byVals []tuple.Value) {
		r.agg, r.byVals = map[*tquel.AggExpr]tuple.Value{}, nil
		for i, a := range out.aggs {
			out.aggVals[i] = tuple.IntValue(int64(i + 1))
			r.agg[a] = out.aggVals[i]
		}
		if out.grouped {
			r.byVals = map[string]tuple.Value{}
			for k, b := range out.byExprs {
				out.byVals[k] = byVals[k]
				r.byVals[b.String()] = byVals[k]
			}
		}
		for k, tg := range s.Targets {
			got, gerr := out.targets[k]()
			want, werr := r.evalExpr(tg.Expr)
			o.same(t, "aggregate output", ctx, got, want, gerr, werr)
		}
		r.agg, r.byVals = nil, nil
	}
	for _, combo := range combos {
		for i, p := range pick {
			p.b.tup = p.tups[combo[i]]
		}
		ctx := fmt.Sprintf("%s, %s bindings %v", src, mode, combo)
		if out == nil {
			continue
		}
		got, gerr := out.residual()
		want, werr := r.residual(s)
		o.same(t, "residual", ctx, got, want, gerr, werr)
		if len(out.aggs) == 0 {
			if out.hasValid {
				giv, gok, gerr := out.validity()
				wiv, wok, werr := r.resultValidity(s, q.vars)
				o.same(t, "validity", ctx, [2]any{giv, gok}, [2]any{wiv, wok}, gerr, werr)
			}
			for k, tg := range s.Targets {
				got, gerr := out.targets[k]()
				want, werr := r.evalExpr(tg.Expr)
				o.same(t, "target", ctx, got, want, gerr, werr)
			}
		} else {
			for i, a := range out.aggs {
				if out.args[i] == nil {
					continue // count and any read no argument
				}
				got, gerr := out.args[i]()
				want, werr := r.evalExpr(a.Arg)
				o.same(t, "aggregate argument", ctx, got, want, gerr, werr)
			}
			byVals := make([]tuple.Value, len(out.by))
			ok := true
			for k, by := range out.by {
				got, gerr := by()
				want, werr := r.evalExpr(out.byExprs[k])
				o.same(t, "grouping", ctx, got, want, gerr, werr)
				byVals[k], ok = got, ok && werr == nil
			}
			if ok {
				output(ctx, byVals)
			}
		}
		if dml {
			base := pick[xi].tups[combo[xi]]
			got, gerr := build(base)
			want, werr := r.applyTargets(h.desc, base, rs.Targets)
			o.same(t, "replace targets", ctx, got, want, gerr, werr)
			giv, gerr := validity()
			wiv, werr := r.newValidity(h.desc, rs.Valid, c.now())
			o.same(t, "replace validity", ctx, giv, wiv, gerr, werr)
		}
	}
	if out != nil && len(out.aggs) > 0 {
		// The output phase of a finished pipeline: no tuple bound.
		for _, p := range pick {
			p.b.tup = nil
		}
		output(src+", nothing bound", make([]tuple.Value, len(out.by)))
	}
	if dml {
		// An append's targets and valid clause see no range variables.
		r.vars = map[string]*binding{}
		base := h.desc.Schema.NewTuple()
		got, gerr := appendBuild(base)
		want, werr := r.applyTargets(h.desc, base, rs.Targets)
		o.same(t, "append targets", src, got, want, gerr, werr)
		giv, gerr := noValidity()
		wiv, werr := r.newValidity(h.desc, rs.Valid, c.now())
		o.same(t, "append validity", src, giv, wiv, gerr, werr)
	}
}

// FuzzLeafRanges holds a leaf's split qualification — the ranges tested on
// the stored bytes, then the compiled rest — to the interpreter. The where
// clause is a run of conjuncts that shape draws, two bytes each: integer
// attributes compared with lit or lit2 on either side of any operator,
// which a leaf may absorb into ranges, between conjuncts that fail and
// ones no range takes (a negated literal, !=, a float attribute). The
// literals reach the statement as a prepared statement's do, written into
// its literal nodes, so every int64 arrives, MinInt64 included.
func FuzzLeafRanges(f *testing.F) {
	for i, lit := range []int64{0, 1, -1, 2, -3, 7, 300, 127, -128, 32767, -32768, math.MaxInt32, math.MinInt32,
		1<<53 - 1, 1<<53 + 1, -(1<<53 + 1), math.MinInt64, math.MaxInt64, int64(epoch) + 2000} {
		for op := range 5 {
			// A failing conjunct after a range shows every tuple the range
			// passes: x.attr op lit, then a division by zero; lit2 op
			// x.attr, then x.nope; and x.attr op -lit after a failure,
			// which no leaf absorbs.
			k := byte(i + op)
			f.Add(uint8(k), []byte{k % 4, byte(op), 5 << 2, 0}, lit, lit, uint8(k))
			f.Add(uint8(k+1), []byte{3<<2 | k%4, byte(op) + 5, 6 << 2, 0}, lit, lit-1, uint8(k+1))
			f.Add(uint8(k+2), []byte{5 << 2, 0, 4<<2 | k%4, byte(op)}, lit, lit, uint8(k+2))
		}
	}
	const slot, slot2 = 424242, 424243 // placeholders for lit and lit2
	var db *Database
	var rels, times []string
	f.Fuzz(func(t *testing.T, rel uint8, shape []byte, lit, lit2 int64, slice uint8) {
		if db == nil {
			db, rels, times = qualDB(t, rand.New(rand.NewSource(5)))
		}
		var conjs []string
		for i := 0; i+1 < len(shape) && len(conjs) < 4; i += 2 {
			b, op := shape[i], []string{"=", "<", "<=", ">", ">="}[shape[i+1]%5]
			attr := "x." + []string{"a", "b", "c", "d"}[b&3]
			l := fmt.Sprint(slot + int(shape[i+1]/5%2))
			switch b >> 2 % 8 {
			case 0, 1, 2:
				conjs = append(conjs, attr+" "+op+" "+l)
			case 3:
				conjs = append(conjs, l+" "+op+" "+attr)
			case 4:
				conjs = append(conjs, attr+" "+op+" -"+l)
			case 5:
				conjs = append(conjs, "x.c / 0 = 1")
			case 6:
				conjs = append(conjs, "x.nope = 1")
			default:
				conjs = append(conjs, []string{attr + " != " + l, "x.f " + op + " " + l}[b>>5%2])
			}
		}
		if len(conjs) == 0 {
			conjs = []string{"x.c = " + fmt.Sprint(slot)}
		}
		src := fmt.Sprintf("retrieve (t0 = x.a) where %s", strings.Join(conjs, " and "))
		switch slice % 4 {
		case 1:
			src += ` when x overlap "now"`
		case 2:
			src += " as of " + times[int(slice/4)%len(times)]
		case 3:
			src += " as of " + times[int(slice/4)%len(times)] + ` through "now"`
		}
		stmt, err := tquel.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		s := stmt.(*tquel.RetrieveStmt)
		var set func(tquel.Expr)
		set = func(x tquel.Expr) {
			switch ex := x.(type) {
			case *tquel.BinaryExpr:
				set(ex.L)
				set(ex.R)
			case *tquel.UnaryExpr:
				set(ex.X)
			case *tquel.ConstExpr:
				switch ex.Val.I {
				case slot:
					ex.Val.I = lit
				case slot2:
					ex.Val.I = lit2
				}
			}
		}
		set(s.Where)
		c := db.DefaultSession()
		mustExec(t, db, "range of x is "+rels[int(rel)%len(rels)])
		_, err = c.run(s, func() (*Result, error) {
			q, err := c.newQuery(s)
			if err != nil {
				return nil, err
			}
			if err := c.bind(q); err != nil {
				return nil, err
			}
			b, lq := q.env.vars["x"], q.compileVarQual("x")
			lq.fill()
			for _, tup := range scanAll(t, q.qv["x"].h) {
				b.tup = tup
				want, werr := q.passesVar("x")
				got, gerr := lq.pass(b, tup)
				if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s (literals %d, %d), tuple %x: leaf (%v, %v), reference (%v, %v)",
						src, lit, lit2, tup, got, gerr, want, werr)
				}
			}
			return &Result{}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	})
}
