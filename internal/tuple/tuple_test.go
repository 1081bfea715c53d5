package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

// benchSchema is the benchmark relation of Figure 3 plus the four implicit
// temporal attributes of a temporal relation (Section 4).
func benchSchema() *Schema {
	return NewSchema(
		Attr{Name: "id", Kind: I4},
		Attr{Name: "amount", Kind: I4},
		Attr{Name: "seq", Kind: I4},
		Attr{Name: "string", Kind: Char, Len: 96},
		Attr{Name: "transaction_start", Kind: Temporal},
		Attr{Name: "transaction_stop", Kind: Temporal},
		Attr{Name: "valid_from", Kind: Temporal},
		Attr{Name: "valid_to", Kind: Temporal},
	)
}

func TestWidthsMatchPaper(t *testing.T) {
	s := benchSchema()
	// 108 bytes of data + 16 bytes of time attributes.
	if s.Width() != 124 {
		t.Errorf("temporal tuple width = %d, want 124", s.Width())
	}
	static := NewSchema(s.Attrs()[:4]...)
	if static.Width() != 108 {
		t.Errorf("static tuple width = %d, want 108", static.Width())
	}
}

func TestAttrWidths(t *testing.T) {
	cases := []struct {
		a    Attr
		want int
	}{
		{Attr{Kind: I1}, 1},
		{Attr{Kind: I2}, 2},
		{Attr{Kind: I4}, 4},
		{Attr{Kind: F4}, 4},
		{Attr{Kind: F8}, 8},
		{Attr{Kind: Temporal}, 4},
		{Attr{Kind: Char, Len: 96}, 96},
	}
	for _, c := range cases {
		if got := c.a.Width(); got != c.want {
			t.Errorf("%s width = %d, want %d", c.a.Kind, got, c.want)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	s := NewSchema(
		Attr{Name: "a", Kind: I1},
		Attr{Name: "b", Kind: I2},
		Attr{Name: "c", Kind: I4},
		Attr{Name: "t", Kind: Temporal},
	)
	tup := s.NewTuple()
	s.SetInt(tup, 0, -7)
	s.SetInt(tup, 1, -30000)
	s.SetInt(tup, 2, 2_000_000_000)
	s.SetInt(tup, 3, math.MaxInt32)
	if got := s.Int(tup, 0); got != -7 {
		t.Errorf("i1 = %d", got)
	}
	if got := s.Int(tup, 1); got != -30000 {
		t.Errorf("i2 = %d", got)
	}
	if got := s.Int(tup, 2); got != 2_000_000_000 {
		t.Errorf("i4 = %d", got)
	}
	if got := s.Int(tup, 3); got != math.MaxInt32 {
		t.Errorf("temporal = %d", got)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	s := NewSchema(Attr{Name: "x", Kind: F4}, Attr{Name: "y", Kind: F8})
	tup := s.NewTuple()
	s.SetFloat(tup, 0, 1.5)
	s.SetFloat(tup, 1, -2.25e10)
	if got := s.Float(tup, 0); got != 1.5 {
		t.Errorf("f4 = %g", got)
	}
	if got := s.Float(tup, 1); got != -2.25e10 {
		t.Errorf("f8 = %g", got)
	}
}

func TestStrRoundTripAndTruncation(t *testing.T) {
	s := NewSchema(Attr{Name: "s", Kind: Char, Len: 4})
	tup := s.NewTuple()
	s.SetStr(tup, 0, "ab")
	if got := s.Str(tup, 0); got != "ab" {
		t.Errorf("short = %q", got)
	}
	s.SetStr(tup, 0, "abcdef")
	if got := s.Str(tup, 0); got != "abcd" {
		t.Errorf("truncated = %q", got)
	}
	// Overwriting with a shorter value must clear the tail.
	s.SetStr(tup, 0, "z")
	if got := s.Str(tup, 0); got != "z" {
		t.Errorf("shorter overwrite = %q", got)
	}
}

func TestIndexCaseInsensitive(t *testing.T) {
	s := benchSchema()
	if i := s.Index("Amount"); i != 1 {
		t.Errorf("Index(Amount) = %d", i)
	}
	if i := s.Index("AMOUNT"); i != 1 {
		t.Errorf("Index(AMOUNT) = %d", i)
	}
	if i := s.Index("nope"); i != -1 {
		t.Errorf("Index(nope) = %d", i)
	}
}

func TestProject(t *testing.T) {
	s := benchSchema()
	p := s.Project([]int{0, 2}, []string{"", "sequence"})
	if p.NumAttrs() != 2 || p.Attr(0).Name != "id" || p.Attr(1).Name != "sequence" {
		t.Fatalf("projected schema: %v", p.Attrs())
	}
	if p.Width() != 8 {
		t.Errorf("projected width = %d", p.Width())
	}
}

func TestConcat(t *testing.T) {
	a := NewSchema(Attr{Name: "x", Kind: I4})
	b := NewSchema(Attr{Name: "y", Kind: Char, Len: 3})
	c := Concat(a, b)
	if c.NumAttrs() != 2 || c.Width() != 7 {
		t.Fatalf("concat: %d attrs, width %d", c.NumAttrs(), c.Width())
	}
}

func TestValueCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		if c, err := Compare(a, b); err != nil || c >= 0 {
			t.Errorf("Compare(%v,%v) = %d, %v; want <0", a, b, c, err)
		}
	}
	lt(IntValue(1), IntValue(2))
	lt(IntValue(1), FloatValue(1.5))
	lt(FloatValue(-0.5), IntValue(0))
	lt(StrValue("abc"), StrValue("abd"))
	if _, err := Compare(IntValue(1), StrValue("1")); err == nil {
		t.Error("numeric/string comparison succeeded")
	}
	if c, _ := Compare(TemporalValue(100), TemporalValue(100)); c != 0 {
		t.Errorf("equal temporals compare %d", c)
	}
}

func TestSetValueCoercion(t *testing.T) {
	s := NewSchema(Attr{Name: "n", Kind: I4}, Attr{Name: "f", Kind: F8}, Attr{Name: "c", Kind: Char, Len: 8})
	tup := s.NewTuple()
	if err := s.SetValue(tup, 0, FloatValue(3.9)); err != nil {
		t.Fatal(err)
	}
	if got := s.Int(tup, 0); got != 3 {
		t.Errorf("float->int stored %d", got)
	}
	if err := s.SetValue(tup, 1, IntValue(7)); err != nil {
		t.Fatal(err)
	}
	if got := s.Float(tup, 1); got != 7 {
		t.Errorf("int->float stored %g", got)
	}
	if err := s.SetValue(tup, 2, IntValue(7)); err == nil {
		t.Error("stored int into char")
	}
	if err := s.SetValue(tup, 0, StrValue("x")); err == nil {
		t.Error("stored string into i4")
	}
}

// TestSetValueRange: an integer outside its attribute's width is an
// error, not a wrapped store; each width's extremes store exactly.
func TestSetValueRange(t *testing.T) {
	s := NewSchema(Attr{Name: "b", Kind: I1}, Attr{Name: "h", Kind: I2},
		Attr{Name: "w", Kind: I4}, Attr{Name: "t", Kind: Temporal})
	tup := s.NewTuple()
	for _, c := range []struct {
		attr   int
		lo, hi int64
	}{
		{0, -1 << 7, 1<<7 - 1},
		{1, -1 << 15, 1<<15 - 1},
		{2, -1 << 31, 1<<31 - 1},
		{3, -1 << 31, 1<<31 - 1},
	} {
		for _, v := range []int64{c.lo, c.hi} {
			if err := s.SetValue(tup, c.attr, IntValue(v)); err != nil {
				t.Errorf("attr %d: %d: %v", c.attr, v, err)
			} else if got := s.Int(tup, c.attr); got != v {
				t.Errorf("attr %d: stored %d as %d", c.attr, v, got)
			}
		}
		before := s.Int(tup, c.attr)
		for _, v := range []Value{IntValue(c.lo - 1), IntValue(c.hi + 1), IntValue(3000000000),
			FloatValue(float64(c.hi) + 1), FloatValue(math.NaN()), FloatValue(math.Inf(-1))} {
			if v.AsFloat() >= float64(c.lo) && v.AsFloat() <= float64(c.hi) {
				continue
			}
			if err := s.SetValue(tup, c.attr, v); err == nil {
				t.Errorf("attr %d: stored %v, which is out of range", c.attr, v)
			}
			if got := s.Int(tup, c.attr); got != before {
				t.Errorf("attr %d: failed store of %v changed the tuple to %d", c.attr, v, got)
			}
		}
	}
	// A float is truncated toward zero before the check, as it is stored.
	if err := s.SetValue(tup, 1, FloatValue(32767.9)); err != nil || s.Int(tup, 1) != 32767 {
		t.Errorf("32767.9 into i2: %v, stored %d", err, s.Int(tup, 1))
	}
}

// Property: Value/SetValue round-trips for every kind.
func TestValueRoundTripProperty(t *testing.T) {
	s := benchSchema()
	f := func(id, amount, seq int32, str string, ts, te, vf, vt int32) bool {
		tup := s.NewTuple()
		vals := []Value{
			IntValue(int64(id)), IntValue(int64(amount)), IntValue(int64(seq)),
			StrValue(str), TemporalValue(int64(ts)), TemporalValue(int64(te)),
			TemporalValue(int64(vf)), TemporalValue(int64(vt)),
		}
		for i, v := range vals {
			if err := s.SetValue(tup, i, v); err != nil {
				return false
			}
		}
		for i := 0; i < 3; i++ {
			if s.Value(tup, i).I != vals[i].I {
				return false
			}
		}
		// Strings survive up to the declared length and NUL bytes.
		got := s.Str(tup, 3)
		want := str
		if len(want) > 96 {
			want = want[:96]
		}
		for len(want) > 0 && want[len(want)-1] == 0 {
			want = want[:len(want)-1]
		}
		// NUL-padding means embedded trailing NULs are not distinguishable;
		// accept equal-after-trim.
		if got != want {
			return false
		}
		for i := 4; i < 8; i++ {
			if s.Value(tup, i).I != vals[i].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
