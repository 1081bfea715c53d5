package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// shapeCorpus seeds FuzzShape with the statements the engine runs: the
// Figure 4 queries of every database type, the repository benchmark's
// lookups and writes, and shapes that exercise every clause and literal
// kind.
func shapeCorpus() []string {
	seeds := []string{
		`retrieve (h.id, h.seq) where h.id = 500 when h overlap "now"`,
		`retrieve (h.id, h.seq) where h.id = 500 when h overlap "08:00:00 1/1/1980" as of "08:00:00 1/1/1980"`,
		`replace h (seq = h.seq + 1) where h.id = 500`,
		`delete h where h.id = 3 and h.amount > -2.5 when h overlap "forever"`,
		`retrieve into r unique (x = h.id * 2, s = "a\"b") valid from start of h to "forever" where not (h.s != "") sort by x desc, s`,
		`retrieve (n = count(h.id by h.seq, h.amount - 1), m = max(h.amount)) valid at "beginning"`,
		`retrieve (h.id, t = end of (h extend "1/2/80")) when not (h precede "now") or h equal "3/4/81" as of "1/1/80" through "NOW"`,
		`retrieve (x = -(h.id) + 3.0, y = 7 / 2)`,
	}
	for _, t := range bench.Types {
		for _, q := range bench.Queries(t) {
			if q.Text != "" {
				seeds = append(seeds, q.Text)
			}
		}
	}
	return seeds
}

// FuzzShape checks the statement cache's key on every statement the parser
// accepts that the cache keys (retrieves, and the candidate scans of
// deletes and replaces): the lifted literals, substituted back into the
// shape, render the statement; the statement with its literals changed, kinds
// kept, has the same shape; and changing any identifier, operator or keyword
// changes the shape.
func FuzzShape(f *testing.F) {
	for _, s := range shapeCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := tquel.ParseAll(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			shape, _, ok := core.Shape(s)
			if !ok {
				continue
			}
			checkFill(t, s)
			var sites shapeSites
			sites.stmt(s)
			for _, change := range sites.lits {
				undo := change()
				if again, _, _ := core.Shape(s); !bytes.Equal(again, shape) {
					t.Fatalf("changing a literal of %q changed its shape\nbefore: %q\n after: %q", src, shape, again)
				}
				checkFill(t, s)
				undo()
			}
			for _, change := range sites.idents {
				undo := change()
				if again, _, _ := core.Shape(s); bytes.Equal(again, shape) {
					t.Fatalf("changing %q to %q kept its shape %q", src, rendering(s), shape)
				}
				undo()
			}
			if again, _, _ := core.Shape(s); !bytes.Equal(again, shape) {
				t.Fatalf("undoing the changes of %q did not restore its shape", src)
			}
		}
	})
}

// checkFill substitutes a statement's lifted literals into its shape and
// requires the statement's rendering.
func checkFill(t *testing.T, s tquel.Statement) {
	t.Helper()
	shape, lits, _ := core.Shape(s)
	var b strings.Builder
	n := 0
	for i := 0; i < len(shape); i++ {
		if shape[i] != core.SlotMark {
			b.WriteByte(shape[i])
			continue
		}
		if n == len(lits) || i+1 == len(shape) {
			t.Fatalf("shape %q has more slots than %d literals", shape, len(lits))
		}
		b.WriteString(lits[n].String())
		n++
		i++ // the slot's kind
	}
	if n != len(lits) {
		t.Fatalf("shape %q has %d slots for %d literals", shape, n, len(lits))
	}
	if got, want := b.String(), rendering(s); got != want {
		t.Fatalf("literals substituted into the shape render\n got: %q\nwant: %q", got, want)
	}
}

// rendering is what a shape with its literals substituted must read: the
// statement itself for a retrieve, the qualification for a candidate scan.
func rendering(s tquel.Statement) string {
	var v string
	var where tquel.Expr
	var when tquel.TExpr
	switch st := s.(type) {
	case *tquel.RetrieveStmt:
		return st.String()
	case *tquel.DeleteStmt:
		v, where, when = st.Var, st.Where, st.When
	case *tquel.ReplaceStmt:
		v, where, when = st.Var, st.Where, st.When
	}
	out := "candidates of " + v
	if where != nil {
		out += " where " + where.String()
	}
	if when != nil {
		out += " when " + when.String()
	}
	return out
}

// shapeSites lists the changes FuzzShape makes to a statement, each
// applied in place and returning its undo: literal values changed within
// their kind (lits), and identifiers, operators and keywords changed
// (idents).
type shapeSites struct {
	lits, idents []func() (undo func())
}

// str adds a change of *p to alt(*p).
func (ss *shapeSites) str(p *string, alt func(string) string) {
	ss.idents = append(ss.idents, func() func() {
		old := *p
		*p = alt(old)
		return func() { *p = old }
	})
}

func (ss *shapeSites) flag(p *bool) {
	ss.idents = append(ss.idents, func() func() {
		*p = !*p
		return func() { *p = !*p }
	})
}

func renamed(s string) string { return s + "z" }

// otherOp swaps an operator or keyword for another of its class.
func otherOp(op string) string {
	for _, pair := range [][2]string{
		{"+", "-"}, {"*", "/"}, {"=", "!="}, {"<", "<="}, {">", ">="}, {"and", "or"},
		{"not", "-"}, {"overlap", "extend"}, {"precede", "equal"}, {"start", "end"},
		{"count", "sum"}, {"avg", "min"}, {"max", "any"},
	} {
		if op == pair[0] {
			return pair[1]
		}
		if op == pair[1] {
			return pair[0]
		}
	}
	return op + "z"
}

func (ss *shapeSites) stmt(s tquel.Statement) {
	switch st := s.(type) {
	case *tquel.RetrieveStmt:
		ss.str(&st.Into, func(v string) string { return v + "z" })
		ss.flag(&st.Unique)
		for i := range st.Targets {
			ss.str(&st.Targets[i].Name, renamed)
			ss.expr(st.Targets[i].Expr)
		}
		if v := st.Valid; v != nil {
			ss.texpr(v.At)
			ss.texpr(v.From)
			ss.texpr(v.To)
		}
		ss.expr(st.Where)
		ss.texpr(st.When)
		if a := st.AsOf; a != nil {
			ss.texpr(a.At)
			ss.texpr(a.Through)
		}
		for i := range st.Sort {
			ss.str(&st.Sort[i].Column, renamed)
			ss.flag(&st.Sort[i].Desc)
		}
	case *tquel.DeleteStmt:
		ss.str(&st.Var, renamed)
		ss.expr(st.Where)
		ss.texpr(st.When)
	case *tquel.ReplaceStmt:
		ss.str(&st.Var, renamed)
		ss.expr(st.Where)
		ss.texpr(st.When)
	}
}

func (ss *shapeSites) expr(x tquel.Expr) {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		ss.lits = append(ss.lits, func() func() {
			old := ex.Val
			switch ex.Val.Kind {
			case tuple.Char:
				ex.Val = tuple.StrValue(old.S + "x")
			case tuple.F4, tuple.F8:
				ex.Val.F += 0.5
			default:
				ex.Val.I++
			}
			return func() { ex.Val = old }
		})
	case *tquel.AttrExpr:
		ss.str(&ex.Var, renamed)
		ss.str(&ex.Attr, renamed)
	case *tquel.BinaryExpr:
		ss.str(&ex.Op, otherOp)
		ss.expr(ex.L)
		ss.expr(ex.R)
	case *tquel.UnaryExpr:
		ss.str(&ex.Op, otherOp)
		ss.expr(ex.X)
	case *tquel.TAttrExpr:
		ss.str(&ex.End, otherOp)
		ss.texpr(ex.X)
	case *tquel.AggExpr:
		ss.str(&ex.Fn, otherOp)
		ss.expr(ex.Arg)
		for _, b := range ex.By {
			ss.expr(b)
		}
	}
}

func (ss *shapeSites) texpr(x tquel.TExpr) {
	switch tx := x.(type) {
	case *tquel.TVar:
		ss.str(&tx.Var, renamed)
	case *tquel.TConst:
		word := strings.TrimSpace(tx.Text)
		if strings.EqualFold(word, "now") || strings.EqualFold(word, "forever") ||
			strings.EqualFold(word, "infinity") || strings.EqualFold(word, "beginning") {
			ss.str(&tx.Text, func(string) string {
				if strings.EqualFold(word, "now") {
					return "forever"
				}
				return "now"
			})
			return
		}
		ss.lits = append(ss.lits, func() func() {
			old := tx.Text
			tx.Text = fmt.Sprintf("%s 1/2/99", old)
			return func() { tx.Text = old }
		})
	case *tquel.TUnary:
		ss.str(&tx.Op, otherOp)
		ss.texpr(tx.X)
	case *tquel.TBinary:
		ss.str(&tx.Op, otherOp)
		ss.texpr(tx.L)
		ss.texpr(tx.R)
	}
}
