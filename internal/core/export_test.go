package core

import (
	"fmt"

	"tdbms/internal/tquel"
)

// Shape exposes the statement cache's key walk to the external shape
// tests: the shape of a retrieve, or of a delete's or replace's candidate
// scan, and its lifted literals in order. ok is false for a statement the
// cache never keys.
func Shape(s tquel.Statement) (shape []byte, lits []fmt.Stringer, ok bool) {
	var w shaper
	switch st := s.(type) {
	case *tquel.RetrieveStmt:
		w.retrieve(st)
	case *tquel.DeleteStmt:
		w.candidates(st.Var, st.Where, st.When)
	case *tquel.ReplaceStmt:
		w.candidates(st.Var, st.Where, st.When)
	default:
		return nil, nil, false
	}
	for _, l := range w.lits {
		if l.c != nil {
			lits = append(lits, l.c)
		} else {
			lits = append(lits, l.t)
		}
	}
	return w.buf, lits, true
}

// SlotMark is the byte that opens a literal's slot in a shape.
const SlotMark = slotMark
