package tquel

import (
	"strings"
	"testing"

	"tdbms/internal/tuple"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestRange(t *testing.T) {
	s := mustParse(t, `range of h is temporal_h`).(*RangeStmt)
	if s.Var != "h" || s.Rel != "temporal_h" {
		t.Errorf("parsed %+v", s)
	}
}

func TestCreateFigure3(t *testing.T) {
	// The create statement from Figure 3 of the paper.
	s := mustParse(t, `create persistent interval Temporal_h
		(id = i4, amount = i4, seq = i4, string = c96)`).(*CreateStmt)
	if !s.Persistent || s.Model != "interval" || s.Rel != "temporal_h" {
		t.Fatalf("parsed %+v", s)
	}
	if len(s.Attrs) != 4 {
		t.Fatalf("%d attrs", len(s.Attrs))
	}
	if s.Attrs[3].Kind != tuple.Char || s.Attrs[3].Len != 96 {
		t.Errorf("string attr = %+v", s.Attrs[3])
	}
	if s.Attrs[0].Kind != tuple.I4 {
		t.Errorf("id attr = %+v", s.Attrs[0])
	}
}

func TestCreateVariants(t *testing.T) {
	if s := mustParse(t, `create r (a = i4)`).(*CreateStmt); s.Persistent || s.Model != "" {
		t.Errorf("static create: %+v", s)
	}
	if s := mustParse(t, `create persistent r (a = i4)`).(*CreateStmt); !s.Persistent || s.Model != "" {
		t.Errorf("rollback create: %+v", s)
	}
	if s := mustParse(t, `create event r (a = i4, t = temporal)`).(*CreateStmt); s.Persistent || s.Model != "event" {
		t.Errorf("event create: %+v", s)
	}
}

func TestModifyFigure3(t *testing.T) {
	s := mustParse(t, `modify Temporal_h to hash on id where fillfactor = 100`).(*ModifyStmt)
	if s.Rel != "temporal_h" || s.Method != "hash" || s.KeyAttr != "id" || s.Fillfactor != 100 {
		t.Errorf("parsed %+v", s)
	}
	s = mustParse(t, `modify Temporal_i to isam on id where fillfactor = 50`).(*ModifyStmt)
	if s.Method != "isam" || s.Fillfactor != 50 {
		t.Errorf("parsed %+v", s)
	}
	s = mustParse(t, `modify r to heap`).(*ModifyStmt)
	if s.Method != "heap" || s.KeyAttr != "" || s.Fillfactor != 0 {
		t.Errorf("parsed %+v", s)
	}
}

func TestModifyRejectsBadInput(t *testing.T) {
	for _, src := range []string{
		`modify r to gridfile on id`,
		`modify r to hash on id where fillfactor = 0`,
		`modify r to hash on id where fillfactor = 101`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestBenchmarkQueriesParse(t *testing.T) {
	// Every query of Figure 4 must parse.
	queries := []string{
		`retrieve (h.id, h.seq) where h.id = 500`,
		`retrieve (i.id, i.seq) where i.id = 500`,
		`retrieve (h.id, h.seq) as of "08:00 1/1/80"`,
		`retrieve (i.id, i.seq) as of "08:00 1/1/80"`,
		`retrieve (h.id, h.seq) where h.id = 500 when h overlap "now"`,
		`retrieve (i.id, i.seq) where i.id = 500 when i overlap "now"`,
		`retrieve (h.id, h.seq) where h.amount = 69400 when h overlap "now"`,
		`retrieve (i.id, i.seq) where i.amount = 73700 when i overlap "now"`,
		`retrieve (h.id, i.id, i.amount) where h.id = i.amount when h overlap i and i overlap "now"`,
		`retrieve (i.id, h.id, h.amount) where i.id = h.amount when h overlap i and h overlap "now"`,
		`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
			valid from start of h to end of i
			when start of h precede i
			as of "4:00 1/1/80"`,
		`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
			valid from start of (h overlap i) to end of (h extend i)
			where h.id = 500 and i.amount = 73700
			when h overlap i
			as of "now"`,
	}
	for i, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Q%02d: %v", i+1, err)
		}
	}
}

func TestFigure2Query(t *testing.T) {
	s := mustParse(t, `retrieve (h.id, h.seq, i.id, i.seq, i.amount)
		valid from start of (h overlap i) to end of (h extend i)
		where h.id = 500 and i.amount = 73700
		when h overlap i
		as of "1981"`).(*RetrieveStmt)
	if len(s.Targets) != 5 {
		t.Fatalf("%d targets", len(s.Targets))
	}
	if s.Targets[4].Name != "amount" {
		t.Errorf("target 5 name %q", s.Targets[4].Name)
	}
	if s.Valid == nil || s.Valid.From == nil || s.Valid.To == nil {
		t.Fatal("missing valid clause")
	}
	from, ok := s.Valid.From.(*TUnary)
	if !ok || from.Op != "start" {
		t.Fatalf("valid from = %v", s.Valid.From)
	}
	if ov, ok := from.X.(*TBinary); !ok || ov.Op != "overlap" {
		t.Fatalf("valid from operand = %v", from.X)
	}
	if s.AsOf == nil || s.AsOf.At.(*TConst).Text != "1981" {
		t.Fatalf("as of = %v", s.AsOf)
	}
	if s.Where == nil {
		t.Fatal("missing where")
	}
	w := s.Where.(*BinaryExpr)
	if w.Op != "and" {
		t.Errorf("where op %q", w.Op)
	}
	if s.When == nil {
		t.Fatal("missing when")
	}
	when := s.When.(*TBinary)
	if when.Op != "overlap" {
		t.Errorf("when op %q", when.Op)
	}
}

func TestRetrieveInto(t *testing.T) {
	s := mustParse(t, `retrieve into tmp (x = h.id + 1, h.seq) where h.id > 3 and not h.id >= 10`).(*RetrieveStmt)
	if s.Into != "tmp" {
		t.Errorf("into %q", s.Into)
	}
	if s.Targets[0].Name != "x" || s.Targets[1].Name != "seq" {
		t.Errorf("targets %+v", s.Targets)
	}
}

func TestAppendDeleteReplace(t *testing.T) {
	a := mustParse(t, `append to hist (id = 1, name = "x") valid from "1/1/80" to "forever"`).(*AppendStmt)
	if a.Rel != "hist" || a.Valid == nil || len(a.Targets) != 2 {
		t.Errorf("append: %+v", a)
	}
	d := mustParse(t, `delete h where h.id = 3`).(*DeleteStmt)
	if d.Var != "h" || d.Where == nil {
		t.Errorf("delete: %+v", d)
	}
	r := mustParse(t, `replace h (seq = h.seq + 1) where h.id = 4 when h overlap "now"`).(*ReplaceStmt)
	if r.Var != "h" || r.Where == nil || r.When == nil {
		t.Errorf("replace: %+v", r)
	}
}

func TestValidAt(t *testing.T) {
	s := mustParse(t, `append to ev (id = 1) valid at "08:00 1/1/80"`).(*AppendStmt)
	if s.Valid == nil || s.Valid.At == nil {
		t.Fatalf("valid at missing: %+v", s.Valid)
	}
}

func TestAsOfThrough(t *testing.T) {
	s := mustParse(t, `retrieve (h.id) as of "1/1/80" through "2/1/80"`).(*RetrieveStmt)
	if s.AsOf == nil || s.AsOf.Through == nil {
		t.Fatalf("as of through: %+v", s.AsOf)
	}
}

func TestCopyDestroyIndex(t *testing.T) {
	c := mustParse(t, `copy r () from "data.txt"`).(*CopyStmt)
	if c.Rel != "r" || c.Into || c.File != "data.txt" {
		t.Errorf("copy: %+v", c)
	}
	c = mustParse(t, `copy r into "out.txt"`).(*CopyStmt)
	if !c.Into {
		t.Errorf("copy into: %+v", c)
	}
	d := mustParse(t, `destroy r`).(*DestroyStmt)
	if d.Rel != "r" {
		t.Errorf("destroy: %+v", d)
	}
	ix := mustParse(t, `index on r is r_amount (amount) with structure = hash with levels = 2`).(*IndexStmt)
	if ix.Rel != "r" || ix.Attr != "amount" || ix.Structure != "hash" || ix.Levels != 2 {
		t.Errorf("index: %+v", ix)
	}
}

func TestParseAllMultipleStatements(t *testing.T) {
	stmts, err := ParseAll(`
		create r (a = i4)
		modify r to hash on a where fillfactor = 100
		range of x is r
		retrieve (x.a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("%d statements", len(stmts))
	}
}

func TestComments(t *testing.T) {
	s := mustParse(t, `range of h is temporal_h /* 1024 tuples, hashed on id */`).(*RangeStmt)
	if s.Rel != "temporal_h" {
		t.Errorf("%+v", s)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := mustParse(t, `retrieve (x = h.a + h.b * 2)`).(*RetrieveStmt)
	add := s.Targets[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op %q", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Errorf("rhs %v", add.R)
	}

	s = mustParse(t, `retrieve (h.a) where h.a = 1 or h.b = 2 and h.c = 3`).(*RetrieveStmt)
	or := s.Where.(*BinaryExpr)
	if or.Op != "or" {
		t.Fatalf("where top op %q (and must bind tighter than or)", or.Op)
	}
}

func TestUnaryMinus(t *testing.T) {
	s := mustParse(t, `retrieve (x = -h.a)`).(*RetrieveStmt)
	u := s.Targets[0].Expr.(*UnaryExpr)
	if u.Op != "-" {
		t.Errorf("unary %+v", u)
	}
}

func TestStartEndInTargetList(t *testing.T) {
	s := mustParse(t, `retrieve (h.id, at = start of h)`).(*RetrieveStmt)
	ta, ok := s.Targets[1].Expr.(*TAttrExpr)
	if !ok || ta.End != "start" {
		t.Errorf("target %+v", s.Targets[1])
	}
}

func TestAggregatesParse(t *testing.T) {
	s := mustParse(t, `retrieve (n = count(x.a), m = max(x.b) - min(x.b))`).(*RetrieveStmt)
	if _, ok := s.Targets[0].Expr.(*AggExpr); !ok {
		t.Fatalf("target 0: %T", s.Targets[0].Expr)
	}
	diff := s.Targets[1].Expr.(*BinaryExpr)
	if _, ok := diff.L.(*AggExpr); !ok {
		t.Fatalf("nested aggregate: %T", diff.L)
	}
	// An identifier that merely looks like an aggregate stays an attribute.
	s = mustParse(t, `retrieve (x.count)`).(*RetrieveStmt)
	if _, ok := s.Targets[0].Expr.(*AttrExpr); !ok {
		t.Fatalf("x.count parsed as %T", s.Targets[0].Expr)
	}
}

func TestSortByParse(t *testing.T) {
	s := mustParse(t, `retrieve (x.a, x.b) sort by a desc, b asc`).(*RetrieveStmt)
	if len(s.Sort) != 2 || !s.Sort[0].Desc || s.Sort[1].Desc {
		t.Fatalf("sort keys: %+v", s.Sort)
	}
	if _, err := Parse(`retrieve (x.a) sort by`); err == nil {
		t.Error("empty sort list accepted")
	}
	// String round trip keeps the sort clause.
	if got := mustParse(t, s.String()).String(); got != s.String() {
		t.Errorf("round trip: %s vs %s", got, s)
	}
}

func TestBtreeModifyParse(t *testing.T) {
	s := mustParse(t, `modify r to btree on id`).(*ModifyStmt)
	if s.Method != "btree" || s.KeyAttr != "id" {
		t.Errorf("%+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`retrieve`,
		`retrieve ()`,
		`retrieve (h.id`,
		`retrieve (5)`,                    // unnamed constant target
		`retrieve (h.id) where`,           // missing expression
		`retrieve (id)`,                   // bare identifier
		`select * from t`,                 // not Quel
		`create r ()`,                     // no attributes
		`create r (a = i9)`,               // bad type
		`create r (a = c0)`,               // bad char length
		`range of h temporal_h`,           // missing is
		`retrieve (h.id) where h.id = "x`, // unterminated string
		`retrieve (h.id) where h.id @ 3`,  // bad operator
		`retrieve (h.id) where h.id = 5x`, // malformed number
		`retrieve (h.id) when`,
		`copy r sideways "f"`,
		`index on r is i (a) with structure = btree`,
		`retrieve (h.id) as of "now" as of "now"`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() output of a parsed statement re-parses to the same string.
	srcs := []string{
		`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
			valid from start of (h overlap i) to end of (h extend i)
			where h.id = 500 and i.amount = 73700
			when h overlap i
			as of "now"`,
		`append to hist (id = 1) valid from "1/1/80" to "forever"`,
		`replace h (seq = h.seq + 1) where h.id = 4`,
		`modify r to hash on id where fillfactor = 50`,
		`create persistent interval t (a = i4, s = c8)`,
	}
	for _, src := range srcs {
		s1 := mustParse(t, src)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n%s\n%s", s1, s2)
		}
	}
}

func TestLexerStrings(t *testing.T) {
	s := mustParse(t, `retrieve (x = "a\"b")`).(*RetrieveStmt)
	c := s.Targets[0].Expr.(*ConstExpr)
	if c.Val.S != `a"b` {
		t.Errorf("escaped string = %q", c.Val.S)
	}
	if !strings.Contains(s.String(), `a\"b`) {
		t.Logf("render: %s", s) // rendering detail, not required
	}
}

// TestLexerStringForms pins string constants with and without escapes, and
// the error offsets of unterminated ones: a constant without a backslash is
// sliced out of the source, one with a backslash is unescaped byte by byte,
// and both must read the same.
func TestLexerStringForms(t *testing.T) {
	for _, tc := range []struct{ src, want, err string }{
		{src: `x "abc" y`, want: "abc"},
		{src: `x "" y`, want: ""},
		{src: `x "a\"b" y`, want: `a"b`},
		{src: `x "a\\" y`, want: `a\`},
		{src: `x "a\nb" y`, want: "anb"},
		{src: `x "a\b\"" y`, want: `ab"`},
		{src: `x "abc`, err: "tquel: unterminated string constant at offset 2"},
		{src: `x "a\"`, err: "tquel: unterminated string constant at offset 2"},
		{src: `x "a\`, err: "tquel: unterminated string constant at offset 2"},
	} {
		toks, err := lex(tc.src)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("lex(%q) error = %v, want %q", tc.src, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("lex(%q): %v", tc.src, err)
		}
		if len(toks) != 4 || toks[1].kind != tokString || toks[1].text != tc.want || toks[1].pos != 2 || toks[2].text != "y" {
			t.Errorf("lex(%q) = %+v, want string %q at offset 2", tc.src, toks, tc.want)
		}
	}
}

// BenchmarkParse parses the statement shapes the repository benchmark
// issues most: a current-state lookup, a past-state lookup and a keyed
// replace.
func BenchmarkParse(b *testing.B) {
	for _, q := range []struct{ name, src string }{
		{"current", `retrieve (h.id, h.seq) where h.id = 4711 when h overlap "now"`},
		{"asof", `retrieve (h.id, h.seq) where h.id = 4711 when h overlap "09:00:00 1/5/1980" as of "09:00:00 1/5/1980"`},
		{"replace", `replace h (seq = h.seq + 1) where h.id = 4711`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(q.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
