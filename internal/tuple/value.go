package tuple

import (
	"fmt"
	"math"
	"strings"

	"tdbms/internal/temporal"
)

// Value is a dynamically typed attribute value used by the query evaluator.
type Value struct {
	Kind Kind
	I    int64   // I1/I2/I4/Temporal
	F    float64 // F4/F8
	S    string  // Char
	Len  int     // declared length for Char values
}

// IntValue makes an I4 value.
func IntValue(v int64) Value { return Value{Kind: I4, I: v} }

// FloatValue makes an F8 value.
func FloatValue(v float64) Value { return Value{Kind: F8, F: v} }

// StrValue makes a Char value.
func StrValue(v string) Value { return Value{Kind: Char, S: v, Len: len(v)} }

// TemporalValue makes a Temporal value holding seconds.
func TemporalValue(sec int64) Value { return Value{Kind: Temporal, I: sec} }

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == F4 || v.Kind == F8 {
		return v.F
	}
	return float64(v.I)
}

// AsInt converts a numeric value to int64 (truncating floats).
func (v Value) AsInt() int64 {
	if v.Kind == F4 || v.Kind == F8 {
		return int64(v.F)
	}
	return v.I
}

// IsNumeric reports whether the value is numeric (including temporal).
func (v Value) IsNumeric() bool { return v.Kind != Char }

// String implements fmt.Stringer with Quel-style rendering; temporal
// values use the second resolution ("forever" for open-ended times).
func (v Value) String() string {
	switch v.Kind {
	case F4, F8:
		return fmt.Sprintf("%g", v.F)
	case Char:
		return v.S
	case Temporal:
		return temporal.Format(temporal.Time(v.I), temporal.Second)
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

// Compare orders two values: numerics by magnitude (with int/float
// coercion), strings lexicographically. Comparing a numeric with a string
// is an error.
func Compare(a, b Value) (int, error) {
	if a.Kind == Char || b.Kind == Char {
		if a.Kind != Char || b.Kind != Char {
			return 0, fmt.Errorf("tuple: cannot compare %s with %s", a.Kind, b.Kind)
		}
		return strings.Compare(a.S, b.S), nil
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	}
	return 0, nil
}

// Value reads attribute i of tup as a Value.
func (s *Schema) Value(tup []byte, i int) Value {
	a := s.attrs[i]
	switch a.Kind {
	case F4, F8:
		return Value{Kind: a.Kind, F: s.Float(tup, i)}
	case Char:
		return Value{Kind: Char, S: s.Str(tup, i), Len: a.Len}
	default:
		return Value{Kind: a.Kind, I: s.Int(tup, i)}
	}
}

// SetValue writes v into attribute i of tup, coercing between numeric kinds.
func (s *Schema) SetValue(tup []byte, i int, v Value) error {
	a := s.attrs[i]
	switch a.Kind {
	case F4, F8:
		if !v.IsNumeric() {
			return fmt.Errorf("tuple: cannot store %s into %s attribute %q", v.Kind, a.Kind, a.Name)
		}
		s.SetFloat(tup, i, v.AsFloat())
	case Char:
		if v.Kind != Char {
			return fmt.Errorf("tuple: cannot store %s into char attribute %q", v.Kind, a.Name)
		}
		s.SetStr(tup, i, v.S)
	default:
		if !v.IsNumeric() {
			return fmt.Errorf("tuple: cannot store %s into %s attribute %q", v.Kind, a.Kind, a.Name)
		}
		if !fits(a.Kind, v) {
			return fmt.Errorf("tuple: %s is out of range for %s attribute %q", v, a.Kind, a.Name)
		}
		s.SetInt(tup, i, v.AsInt())
	}
	return nil
}

// fits reports whether a numeric value, truncated toward zero, lies in
// the range of an integer kind's width (Temporal is stored as I4).
func fits(k Kind, v Value) bool {
	bits := 32
	switch k {
	case I1:
		bits = 8
	case I2:
		bits = 16
	}
	limit := math.Ldexp(1, bits-1)
	f := math.Trunc(v.AsFloat())
	return f >= -limit && f < limit
}
