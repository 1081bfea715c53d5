package core

import (
	"fmt"
	"reflect"

	"tdbms/internal/am"
	"tdbms/internal/exec"
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

// SubstWalks reports, for each substitution join among session c's cached
// statements, the shared walks of its last execution: the tapes it
// recorded and the chains it walked alone (exec.BatchSubstJoin.Walks).
func SubstWalks(c *Conn) [][2]int64 {
	var walks [][2]int64
	for _, e := range c.cache.m {
		for _, j := range substJoins(e.root, nil) {
			r, a := j.Walks()
			walks = append(walks, [2]int64{r, a})
		}
	}
	return walks
}

// substJoins appends the substitution joins of op's tree to js.
func substJoins(op exec.BatchOperator, js []*exec.BatchSubstJoin) []*exec.BatchSubstJoin {
	if j, ok := op.(*exec.BatchSubstJoin); ok {
		js = append(js, j)
	}
	v := reflect.ValueOf(op)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return js
	}
	v = v.Elem()
	for i := range v.NumField() {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		if child, ok := v.Field(i).Interface().(exec.BatchOperator); ok {
			js = substJoins(child, js)
		}
	}
	return js
}

// ProbeChains returns relation rel's keyed probe split into chains
// (am.Chains) and the buffer its Locate reads.
func ProbeChains(db *Database, rel string) (am.Chains, am.Viewer) {
	c := db.rels[rel].src.(*conventional)
	return c.parts().Chains, c.buf
}
