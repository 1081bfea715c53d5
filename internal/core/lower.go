package core

import (
	"fmt"
	"strings"

	"tdbms/internal/am"
	"tdbms/internal/exec"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/secindex"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

// This file lowers a physical plan (internal/plan) onto the cursor
// executor (internal/exec). The plan layer is storage-free and the
// executor is semantics-free, so the glue lives here: every operator's
// hooks are closures over the analyzed query's evaluation environment and
// the relation handles. Bindings flow through q.env — a leaf's Bind
// stores the tuple under its variable, and the parent operators evaluate
// predicates and targets against the environment, exactly as the
// interpreter did before the split.

// joinConj pairs the two sides of a join-equality conjunct, kept in
// where-clause order so plan.Subst.EqIndex indexes into it.
type joinConj struct {
	l, r *tquel.AttrExpr
}

// joinConjuncts lists the join equalities of the where clause.
func (q *query) joinConjuncts() []joinConj {
	if q.stmt.Where == nil {
		return nil
	}
	var out []joinConj
	for _, c := range flattenAnd(q.stmt.Where, nil) {
		l, r, ok := joinEquality(c)
		if !ok {
			continue
		}
		if _, ok := q.qv[l.Var]; !ok {
			continue
		}
		if _, ok := q.qv[r.Var]; !ok {
			continue
		}
		out = append(out, joinConj{l, r})
	}
	return out
}

// varInfo summarizes one analyzed variable for the planner.
func (db *Conn) varInfo(q *query, v string) plan.VarInfo {
	qv := q.qv[v]
	desc := qv.h.desc
	info := plan.VarInfo{
		Var:     v,
		Rel:     desc.Name,
		Type:    desc.Type.String(),
		Method:  desc.Method.String(),
		KeyAttr: desc.KeyAttr,
		Keyed:   qv.h.src.Keyed(),
		Ordered: qv.h.src.Ordered(),
		Pages:   qv.h.src.NumPages(),
		Current: qv.currentOnly,
		Sels:    len(qv.sel),
		TSels:   len(qv.tsel),
	}
	if qv.keyConst != nil {
		info.HasKeyConst = true
		info.KeyConst = qv.keyConst
	}
	if qv.keyLo != nil {
		info.HasLo, info.KeyLo = true, *qv.keyLo
	}
	if qv.keyHi != nil {
		info.HasHi, info.KeyHi = true, *qv.keyHi
	}
	if qv.idxName != "" {
		cfg := qv.h.indexes[qv.idxName].Config()
		info.IdxName = cfg.Name
		info.IdxAttr = cfg.Attr
		info.IdxStructure = fmt.Sprint(cfg.Structure)
		info.IdxLevels = cfg.Levels
		info.IdxConst = qv.idxConst
	}
	statInputs(qv, &info)
	return info
}

// buildPlan summarizes the analyzed query for the planner and builds the
// physical plan tree. It returns the join conjuncts alongside so the
// lowering can map a substitution choice back to its key expression.
func (db *Conn) buildPlan(q *query, aggregate bool) (*plan.Tree, []joinConj) {
	s := q.stmt
	in := plan.Input{
		Aggregate: aggregate,
		Unique:    s.Unique,
		Sort:      len(s.Sort) > 0,
		Into:      s.Into,
	}
	// The closure outlives the query inside the plan tree: capture the
	// three values it prints, not the query.
	sliced, at, thr := s.AsOf != nil, q.at, q.thr
	in.Slice = func() string {
		if !sliced {
			return "as of now (default)"
		}
		slice := "as of " + temporal.Format(at, temporal.Second)
		if thr != at {
			slice += " through " + temporal.Format(thr, temporal.Second)
		}
		return slice
	}
	for _, t := range s.Targets {
		in.Targets = append(in.Targets, strings.ToLower(t.Name))
	}
	in.Where, in.When = s.Where, s.When
	for _, v := range q.vars {
		in.Vars = append(in.Vars, db.varInfo(q, v))
	}
	conjs := q.joinConjuncts()
	for _, c := range conjs {
		in.Joins = append(in.Joins, plan.JoinEq{
			LVar: c.l.Var, LAttr: c.l.Attr,
			RVar: c.r.Var, RAttr: c.r.Attr,
		})
	}
	return plan.Build(in), conjs
}

// lowering carries the state shared by all operators of one query run.
type lowering struct {
	db    *Conn
	q     *query
	out   *emitter
	att   *exec.Attribution
	joins []joinConj
	// ra is the scan-readahead budget from the session's buffer policy;
	// zero (the measurement default, and always for DML lowering, which
	// runs on the root graph) leaves scans fetching page by page.
	ra int
}

// pipelineRoot strips the post-processing wrappers (dedupe, sort, insert)
// that run over the collected rows after the cursor pipeline drains.
func pipelineRoot(n *plan.Node) *plan.Node {
	for n.Op == plan.OpInsert || n.Op == plan.OpSort || n.Op == plan.OpDedupe {
		n = n.Children[0]
	}
	return n
}

// lowerNode lowers a pipeline subtree to its cursor.
func (l *lowering) lowerNode(n *plan.Node) exec.Operator {
	switch n.Op {
	case plan.OpProject, plan.OpAggregate:
		// Aggregation has the same cursor shape as projection: emitRow
		// either appends a result row or accumulates, per the prepared
		// emitter.
		return &exec.Project{Node: n, Child: l.lowerNode(n.Children[0]), Emit: l.out.emitRow}
	case plan.OpFilter:
		return &exec.Filter{Node: n, Child: l.lowerNode(n.Children[0]), Pred: l.out.residual}
	case plan.OpNestLoop:
		outer := l.lowerNode(n.Children[0])
		var inner exec.Operator
		if n.Sub != nil {
			inner = l.lowerSubstProbe(n.Children[1], n.Sub)
		} else {
			inner = l.lowerNode(n.Children[1])
		}
		return &exec.NestedLoop{Node: n, Outer: outer, Inner: inner}
	case plan.OpOnce:
		return &exec.Once{}
	default:
		return l.lowerLeaf(n, nil)
	}
}

// lowerLeaf lowers a one-variable access node. fn, when non-nil, receives
// every qualifying version (the DML candidate collector); the retrieve
// pipeline passes nil and lets the parent operators consume the binding
// from the environment.
func (l *lowering) lowerLeaf(n *plan.Node, fn func(rid page.RID, tup []byte) error) exec.Operator {
	q := l.q
	v := n.Var
	qv := q.qv[v]
	// Bind resolves the binding at call time, not capture time: after a
	// detachment the variable's binding is swapped to the temporary's.
	bind := func(rid page.RID, tup []byte) (bool, error) {
		q.env.vars[v].tup = tup
		pass, err := q.passesVar(v)
		if err != nil || !pass {
			return false, err
		}
		if fn != nil {
			if err := fn(rid, tup); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	end := func() { q.env.vars[v].tup = nil }

	switch n.Op {
	case plan.OpTempScan:
		// A detached temporary holds only qualifying projections; its
		// scan applies no predicates. The prologue has already run, so
		// the temporary's size is known for the rendered plan.
		n.Pages = qv.temp.hf.Buffer().NumPages()
		return &exec.Scan{Node: n, Att: l.att, Readahead: l.ra,
			Start: func() (am.Iterator, error) { return qv.temp.hf.Scan(), nil },
			Bind: func(rid page.RID, tup []byte) (bool, error) {
				q.env.vars[v].tup = tup
				if fn != nil {
					if err := fn(rid, tup); err != nil {
						return false, err
					}
				}
				return true, nil
			},
			End: end,
		}
	case plan.OpProbe:
		return &exec.Scan{Node: n, Att: l.att,
			Start: func() (am.Iterator, error) {
				key := qv.keyConst.AsInt()
				if qv.currentOnly {
					return qv.h.src.ProbeCurrent(key), nil
				}
				return qv.h.src.ProbeAll(key), nil
			},
			Bind: bind,
			End:  end,
		}
	case plan.OpRangeScan:
		return &exec.Scan{Node: n, Att: l.att,
			Start: func() (am.Iterator, error) {
				lo, hi := qv.keyBounds()
				if qv.currentOnly {
					return qv.h.src.RangeCurrent(lo, hi), nil
				}
				return qv.h.src.RangeAll(lo, hi), nil
			},
			Bind: bind,
			End:  end,
		}
	case plan.OpIndexScan:
		ix := qv.h.indexes[qv.idxName]
		return &exec.IndexScan{Node: n, Att: l.att,
			Lookup: func() ([]secindex.TID, error) {
				if qv.currentOnly && ix.CanProbeCurrent() {
					return ix.ProbeCurrent(qv.idxConst)
				}
				return ix.ProbeAll(qv.idxConst)
			},
			Fetch: func(tid secindex.TID) (bool, error) {
				tup, err := qv.h.src.FetchTID(secTID{history: tid.History, rid: tid.RID})
				if err != nil {
					return false, err
				}
				return bind(tid.RID, tup)
			},
			End: end,
		}
	default: // plan.OpSeqScan
		return &exec.Scan{Node: n, Att: l.att, Readahead: l.ra,
			Start: func() (am.Iterator, error) {
				if qv.currentOnly {
					return qv.h.src.ScanCurrent(), nil
				}
				return qv.h.src.ScanAll(), nil
			},
			Bind: bind,
			End:  end,
		}
	}
}

// lowerSubstProbe lowers the inner side of a tuple-substitution join: a
// keyed probe whose key is recomputed from the current outer binding each
// time the nested loop re-opens it.
func (l *lowering) lowerSubstProbe(n *plan.Node, sub *plan.Subst) exec.Operator {
	q := l.q
	v := n.Var
	qv := q.qv[v]
	conj := l.joins[sub.EqIndex]
	keyExpr := conj.r
	if sub.Flipped {
		keyExpr = conj.l
	}
	return &exec.Scan{Node: n, Att: l.att,
		Start: func() (am.Iterator, error) {
			keyVal, err := q.env.evalExpr(keyExpr)
			if err != nil {
				return nil, err
			}
			if !keyVal.IsNumeric() {
				return nil, fmt.Errorf("core: join key %s is not numeric", keyExpr)
			}
			if qv.currentOnly {
				return qv.h.src.ProbeCurrent(keyVal.AsInt()), nil
			}
			return qv.h.src.ProbeAll(keyVal.AsInt()), nil
		},
		Bind: func(rid page.RID, tup []byte) (bool, error) {
			q.env.vars[v].tup = tup
			return q.passesVar(v)
		},
	}
}

// materialize lowers a prologue node: Ingres's one-variable detachment.
// The child scan runs the variable's restricted one-variable query; Write
// projects each qualifying version into a fresh temporary; Finish flushes
// the temporary, rebinds the variable to it, and marks its restrictions
// consumed.
func (l *lowering) materialize(n *plan.Node) (*exec.Materialize, error) {
	write, finish, err := l.matParts(n)
	if err != nil {
		return nil, err
	}
	return &exec.Materialize{
		Node:   n,
		Att:    l.att,
		Child:  l.lowerLeaf(n.Children[0], nil),
		Write:  write,
		Finish: finish,
	}, nil
}

// matParts builds the Write and Finish closures of a detachment, shared by
// the tuple and batch materialization steps: Write projects the current
// binding into a fresh temporary, Finish flushes the temporary and rebinds
// the variable to it.
func (l *lowering) matParts(n *plan.Node) (write, finish func() error, err error) {
	q, db := l.q, l.db
	v := n.Var
	d := q.qv[v].h.desc
	attrs := q.neededAttrs(v)
	if len(attrs) == 0 {
		attrs = []string{strings.ToLower(d.Schema.Attr(0).Name)}
	}
	idx := make([]int, len(attrs))
	for i, name := range attrs {
		idx[i] = d.Schema.Index(name)
	}
	tmpSchema := d.Schema.Project(idx, nil)
	buf, err := db.newTempBuffer(db.sess.NextTemp())
	if err != nil {
		return nil, nil, err
	}
	tmp := &tempRel{schema: tmpSchema, hf: heapfile.New(buf, tmpSchema.Width())}
	q.temps = append(q.temps, tmp)
	out := tmpSchema.NewTuple()
	write = func() error {
		tup := q.env.vars[v].tup
		for i, srcIdx := range idx {
			if err := tmpSchema.SetValue(out, i, d.Schema.Value(tup, srcIdx)); err != nil {
				return err
			}
		}
		_, err := tmp.hf.Insert(out)
		return err
	}
	finish = func() error {
		// Flush and drop the frame: the temporary is re-read from
		// disk by the next phase, as in the prototype (its pages are
		// part of the fixed input cost of Figure 9).
		if err := tmp.hf.Buffer().Invalidate(); err != nil {
			return err
		}
		// After detachment the variable ranges over the temporary;
		// its single-variable predicates were consumed.
		q.env.vars[v] = bindingForTemp(d, tmpSchema)
		q.qv[v].sel = nil
		q.qv[v].tsel = nil
		q.qv[v].temp = tmp
		n.Pages = tmp.hf.Buffer().NumPages()
		return nil
	}
	return write, finish, nil
}
