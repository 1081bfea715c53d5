package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/page"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

// passesVar and txVisible are the interpreted qualification: what the
// tuple-at-a-time executor ran per tuple before compileVarQual replaced it
// on the only executor left. They stay here as the compiled form's
// reference — slow, and obviously the where/when/as-of semantics.

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
	qv := q.qv[v]
	for _, c := range qv.sel {
		ok, err := q.env.evalBool(c)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, c := range qv.tsel {
		ok, err := q.env.evalTBool(c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// qualGen draws predicates from every shape the parser and analyzer admit
// as a single-variable restriction, the ones compile.go specializes and the
// ones it hands back to the interpreter alike.
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

// where draws a where-clause predicate over v.
func (g *qualGen) where(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		op := g.pick("=", "!=", "<", "<=", ">", ">=")
		if g.rng.Intn(10) == 0 {
			return v + ".s " + op + " " + g.pick(`"ab"`, `"abc"`, `""`, v+".s", "3")
		}
		return g.scalar(v, 2) + " " + op + " " + g.scalar(v, 2)
	}
	switch g.rng.Intn(4) {
	case 0:
		return "not " + g.where(v, depth-1)
	case 1:
		return "(" + g.where(v, depth-1) + " or " + g.where(v, depth-1) + ")"
	case 2:
		return "(" + g.where(v, depth-1) + ")"
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
	db.Clock().Advance(100)
	return db, rels, times
}

// TestCompiledQualMatchesInterpreter is the property that lets the
// interpreter leave the read path: over seeded random predicates of every
// admitted shape, on every relation type, compileVarQual accepts exactly
// the tuples passesVar accepts and fails with the same error where it
// fails — against the relation's own binding and again after a detachment
// swapped the binding for a temporary projection's.
func TestCompiledQualMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db, rels, times := qualDB(t, rng)
	g := &qualGen{rng: rng, times: times}
	c := db.DefaultSession()

	var accepted, rejected, failed, swapped int
	for n := 0; n < 1500; n++ {
		mustExec(t, db, fmt.Sprintf("range of x is %s\nrange of y is %s",
			rels[rng.Intn(len(rels))], rels[rng.Intn(len(rels))]))
		vars := []string{"x"}
		src := "retrieve (x.c) where " + g.where("x", 2)
		if rng.Intn(3) == 0 {
			// A second variable: the analyzer has to split the conjuncts,
			// and the join equality belongs to neither.
			vars = append(vars, "y")
			src = "retrieve (x.c, n = y.c) where " + g.where("x", 1) + " and x.c = y.c and " + g.where("y", 1)
		}
		if rng.Intn(2) == 0 {
			whens := make([]string, len(vars))
			for i, v := range vars {
				whens[i] = g.when(v, 2)
			}
			src += " when " + strings.Join(whens, " and ")
		}
		if rng.Intn(2) == 0 {
			src += " as of " + g.times[rng.Intn(len(g.times))]
			if rng.Intn(2) == 0 {
				src += " through " + g.pick(`"now"`, `"forever"`)
			}
		}
		stmts, err := tquel.ParseAll(src)
		if err != nil {
			t.Fatalf("generator produced unparsable TQuel: %v\n%s", err, src)
		}
		stmt := stmts[0].(*tquel.RetrieveStmt)
		_, err = c.run(stmt, func() (*Result, error) {
			q, err := c.analyze(stmt)
			if err != nil {
				return &Result{}, nil // a bad as-of range: nothing to qualify
			}
			for _, v := range vars {
				h := q.qv[v].h
				var tups [][]byte
				if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
					tups = append(tups, bytes.Clone(tup))
					return nil
				}); err != nil {
					return nil, err
				}
				check := func(where string) {
					cq := q.compileVarQual(v)
					for _, tup := range tups {
						q.env.vars[v].tup = tup
						want, werr := q.passesVar(v)
						got, gerr := cq(tup)
						// Beside an error the boolean means nothing; no
						// caller reads it.
						if fmt.Sprint(gerr) != fmt.Sprint(werr) || (werr == nil && got != want) {
							t.Fatalf("%s on %s, %s binding, tuple %x:\ncompiled    (%v, %v)\ninterpreted (%v, %v)",
								src, h.desc.Name, where, tup, got, gerr, want, werr)
						}
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
				check("relation")

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
				tmp := d.Schema.Project(idx, nil)
				for k, tup := range tups {
					out := tmp.NewTuple()
					for i, srcIdx := range idx {
						if err := tmp.SetValue(out, i, d.Schema.Value(tup, srcIdx)); err != nil {
							return nil, err
						}
					}
					tups[k] = out
				}
				q.env.vars[v] = bindingForTemp(d, tmp)
				check("temporary")
				swapped++
			}
			return &Result{}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	t.Logf("%d accepted, %d rejected, %d failed alike, %d bindings swapped", accepted, rejected, failed, swapped)
	if accepted == 0 || rejected == 0 || failed == 0 || swapped == 0 {
		t.Fatal("the generator no longer reaches every outcome")
	}
}
