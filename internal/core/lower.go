package core

import (
	"fmt"
	"maps"
	"strings"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/secindex"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

// This file lowers a physical plan (internal/plan) onto the executor
// (internal/exec). The plan layer is storage-free and the executor is
// semantics-free, so the glue lives here: every operator's hooks are
// closures over the analyzed query's evaluation environment and the
// relation handles. The batch row layout is one slot per tuple variable,
// in q.vars order: a leaf qualifies each tuple through its variable's
// compiled qualification and fills only its own slot, joins merge slots,
// and consumers rebind a row's slots into the pipeline's bindings, which
// the compiled residual, targets and probe keys read.

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
	info.HasLo, info.KeyLo = qv.hasLo, qv.lo
	info.HasHi, info.KeyHi = qv.hasHi, qv.hi
	if qv.idxName != "" {
		cfg := qv.h.indexes[qv.idxName].Config()
		info.IdxName = cfg.Name
		info.IdxAttr = cfg.Attr
		info.IdxStructure = fmt.Sprint(cfg.Structure)
		info.IdxLevels = cfg.Levels
		info.IdxConst = qv.idxConst.AsInt()
	}
	statInputs(qv, &info)
	return info
}

// buildPlan summarizes the analyzed query for the planner and builds the
// physical plan tree. It returns the join conjuncts alongside so the
// lowering can map a substitution choice back to its key expression. The
// tree renders the query's slice and constants as they are bound when it
// is rendered.
func (db *Conn) buildPlan(q *query, aggregate bool) (*plan.Tree, []joinConj) {
	s := q.stmt
	in := plan.Input{
		Aggregate: aggregate,
		Unique:    s.Unique,
		Sort:      len(s.Sort) > 0,
		Into:      s.Into,
	}
	in.Slice = func() string {
		if s.AsOf == nil {
			return "as of now (default)"
		}
		slice := "as of " + temporal.Format(q.at, temporal.Second)
		if q.thr != q.at {
			slice += " through " + temporal.Format(q.thr, temporal.Second)
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

// lowering carries the state shared by all operators of one prepared
// query. Operators resolve everything a run may change — relation
// handles, temporaries, bound values — when they run, not when they are
// built, so one lowering serves every execution.
type lowering struct {
	db    *Conn
	q     *query
	out   *emitter
	att   *exec.Attribution
	joins []joinConj
	// steps are the decomposition prologue's detachments, in plan order.
	steps []*detach
	// binds are the bindings the operators being lowered read: the
	// relations' own, and once the prologue is lowered, each detached
	// variable's temporary projection.
	binds map[string]*binding
	// parOps counts the operators lowered to run on several goroutines,
	// which number their helper arenas (workerBlock).
	parOps int
}

// pipelineRoot strips the post-processing wrappers (dedupe, sort, insert)
// that run over the collected rows after the cursor pipeline drains.
func pipelineRoot(n *plan.Node) *plan.Node {
	for n.Op == plan.OpInsert || n.Op == plan.OpSort || n.Op == plan.OpDedupe {
		n = n.Children[0]
	}
	return n
}

// slotOf maps a tuple variable to its batch slot: its index in q.vars.
func (l *lowering) slotOf(v string) (int, error) {
	for i, name := range l.q.vars {
		if name == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: plan names variable %q, which the query does not range over", v)
}

// pipelineRebind builds the rebinding closure of the root pipeline: it
// installs a batch row's bound slots into the pipeline's bindings (l.binds).
func (l *lowering) pipelineRebind() func(row [][]byte) {
	binds := make([]*binding, len(l.q.vars))
	for i, v := range l.q.vars {
		binds[i] = l.binds[v]
	}
	return func(row [][]byte) {
		for s, tup := range row {
			if tup != nil {
				binds[s].tup = tup
			}
		}
	}
}

// lowerBatchNode lowers a pipeline subtree to its batch cursor. bcap is
// the batch capacity in rows; rebind is the pipeline's row-rebinding
// closure, shared by every consumer in the tree.
func (l *lowering) lowerBatchNode(n *plan.Node, bcap int, rebind func(row [][]byte)) (exec.BatchOperator, error) {
	slots := len(l.q.vars)
	switch n.Op {
	case plan.OpProject, plan.OpAggregate, plan.OpFilter:
		child, err := l.lowerBatchNode(n.Children[0], bcap, rebind)
		if err != nil {
			return nil, err
		}
		if n.Op == plan.OpFilter {
			return &exec.BatchFilter{Node: n, Child: child, Rebind: rebind, Pred: l.out.residual}, nil
		}
		// Aggregation has the same cursor shape as projection: emitRow
		// either appends a result row or accumulates, per the prepared
		// emitter.
		return &exec.BatchProject{Node: n, Child: child, Rebind: rebind, Emit: l.out.emitRow}, nil
	case plan.OpNestLoop:
		outer, err := l.lowerBatchNode(n.Children[0], bcap, rebind)
		if err != nil {
			return nil, err
		}
		if n.Sub != nil {
			return l.lowerBatchSubst(n, outer, bcap, rebind)
		}
		inner, err := l.lowerBatchNode(n.Children[1], bcap, rebind)
		if err != nil {
			return nil, err
		}
		return &exec.BatchNestedLoop{Node: n, Outer: outer, Inner: inner, Rebind: rebind,
			OuterBuf: exec.NewBatch(slots, bcap), InnerBuf: exec.NewBatch(slots, bcap)}, nil
	case plan.OpOnce:
		return &exec.BatchOnce{}, nil
	default:
		return l.lowerBatchLeaf(n, nil)
	}
}

// varQual builds v's leaf qualification: the ranges its block tests, and
// the Bind hook that binds each tuple within them to v's relation binding
// and applies the rest of v's compiled qualification — nil when the ranges
// are all of it.
func (q *query) varQual(v string) (*leafQual, func(rid page.RID, tup []byte) (bool, error)) {
	return q.varQualOver(v, q.env.vars)
}

// varQualOver is varQual with the variables bound by vars.
func (q *query) varQualOver(v string, vars map[string]*binding) (*leafQual, func(rid page.RID, tup []byte) (bool, error)) {
	b, lq := vars[v], q.compileVarQual(v, vars)
	rest := lq.rest
	if rest == nil {
		return lq, nil
	}
	return lq, func(_ page.RID, tup []byte) (bool, error) {
		b.tup = tup
		return rest()
	}
}

// lowerBatchLeaf lowers a one-variable access node to its batch cursor.
// victim, when non-nil, is a last restriction on the tuples the variable's
// qualification accepts, shown each with its address: the DML candidate
// collector. The retrieve pipeline passes nil.
func (l *lowering) lowerBatchLeaf(n *plan.Node, victim func(rid page.RID, tup []byte) bool) (exec.BatchOperator, error) {
	q := l.q
	v := n.Var
	qv := q.qv[v]
	slot, err := l.slotOf(v)
	if err != nil {
		return nil, err
	}
	lq, bind := q.varQual(v)
	if victim != nil {
		qual := bind
		bind = func(rid page.RID, tup []byte) (bool, error) {
			if qual != nil {
				if ok, err := qual(rid, tup); !ok || err != nil {
					return false, err
				}
			}
			return victim(rid, tup), nil
		}
	}
	b := l.binds[v]
	end := func() { b.tup = nil }

	switch n.Op {
	case plan.OpTempScan:
		// A detached temporary holds only qualifying projections; its
		// scan applies no predicates.
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot,
			Start: func() (am.Iterator, error) { return qv.temp.Scan(), nil },
			Bind: func(rid page.RID, tup []byte) (bool, error) {
				b.tup = tup
				return true, nil
			},
			End: end,
		}, nil
	case plan.OpProbe:
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot, Ranges: lq.ranges,
			Start: func() (am.Iterator, error) {
				lq.fill()
				key := qv.keyConst.AsInt()
				if qv.currentOnly {
					return qv.h.src.ProbeCurrent(key), nil
				}
				return qv.h.src.ProbeAll(key), nil
			},
			Bind: bind,
			End:  end,
		}, nil
	case plan.OpRangeScan:
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot, Ranges: lq.ranges,
			Start: func() (am.Iterator, error) {
				lq.fill()
				lo, hi := qv.keyBounds()
				if qv.currentOnly {
					return qv.h.src.RangeCurrent(lo, hi), nil
				}
				return qv.h.src.RangeAll(lo, hi), nil
			},
			Bind: bind,
			End:  end,
		}, nil
	case plan.OpIndexScan:
		return &exec.BatchIndexScan{Node: n, Att: l.att, Slot: slot,
			Lookup: func() ([]secindex.TID, error) {
				lq.fill()
				ix := qv.h.indexes[qv.idxName]
				if qv.currentOnly && ix.CanProbeCurrent() {
					return ix.ProbeCurrent(qv.idxConst.AsInt())
				}
				return ix.ProbeAll(qv.idxConst.AsInt())
			},
			Fetch: func(tid secindex.TID) ([]byte, bool, error) {
				tup, err := qv.h.src.FetchTID(secTID{history: tid.History, rid: tid.RID})
				if err != nil || !am.Within(lq.ranges, tup) {
					return tup, false, err
				}
				if bind == nil {
					return tup, true, nil
				}
				pass, err := bind(tid.RID, tup)
				return tup, pass, err
			},
			End: end,
		}, nil
	default: // plan.OpSeqScan
		s := &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot, Ranges: lq.ranges,
			Start: func() (am.Iterator, error) {
				lq.fill()
				if qv.currentOnly {
					return qv.h.src.ScanCurrent(), nil
				}
				return qv.h.src.ScanAll(), nil
			},
			Bind: bind,
			End:  end,
		}
		// A DML candidate scan stays on the calling goroutine: the victim
		// hook is the statement's, and no benchmark write scans.
		if victim == nil {
			s.Parts = func() am.Parts {
				lq.fill()
				if c, ok := qv.h.src.(*conventional); ok {
					return c.parts()
				}
				return am.Parts{}
			}
			s.Run = func() *buffer.Run { return qv.h.src.(*conventional).buf.Run() }
			s.Block = l.workerBlock(v, lq, bind)
		}
		return s, nil
	}
}

// workerBlock returns the blocks the workers of v's leaf fill on several
// goroutines: the leaf's ranges, read-only once filled, and worker w's
// arena, one of this operator's own (workerArena). The calling
// goroutine's worker 0 qualifies through bind (varQual); every other
// worker through its own compilation of v's qualification against the
// relation bindings bind reads, with a private copy of v's.
// Not against l.binds: once the decomposition prologue is lowered, they
// bind a detached variable to its temporary's projection.
func (l *lowering) workerBlock(v string, lq *leafQual, bind func(page.RID, []byte) (bool, error)) func(w int) am.Block {
	op := l.parOps
	l.parOps++
	return func(w int) am.Block {
		blk := am.Block{Ranges: lq.ranges, Qual: bind, Arena: l.db.workerArena(op, w)}
		if w > 0 {
			vars := maps.Clone(l.q.env.vars)
			b := *vars[v]
			vars[v] = &b
			_, blk.Qual = l.q.varQualOver(v, vars)
		}
		return blk
	}
}

// onlyVar reports whether v's leaf qualification, its ranges and its
// residual, reads no variable but v.
func (q *query) onlyVar(v string) bool {
	for _, c := range q.qv[v].sel {
		m := map[string]bool{}
		varsInExpr(c, m)
		if len(m) != 1 || !m[v] {
			return false
		}
	}
	for _, c := range q.qv[v].tsel {
		m := map[string]bool{}
		varsInTExpr(c, m)
		if len(m) != 1 || !m[v] {
			return false
		}
	}
	return true
}

// lowerBatchSubst lowers a tuple-substitution join over its lowered outer
// side: the inner side is a keyed probe whose key is computed from each
// outer row. The leaf's ranges are filled once per execution, as the join
// opens, and only read after that. The probes may run on several
// goroutines, so each worker but the calling goroutine's qualifies the
// inner tuples through its own compilation of the leaf's residual, against
// a private copy of the inner variable's binding.
func (l *lowering) lowerBatchSubst(n *plan.Node, outer exec.BatchOperator, bcap int, rebind func(row [][]byte)) (exec.BatchOperator, error) {
	q, in, sub := l.q, n.Children[1], n.Sub
	v := in.Var
	qv := q.qv[v]
	slot, err := l.slotOf(v)
	if err != nil {
		return nil, err
	}
	conj := l.joins[sub.EqIndex]
	keyExpr := conj.r
	if sub.Flipped {
		keyExpr = conj.l
	}
	key := (&compiler{e: q.env, vars: l.binds}).expr(keyExpr)
	lq, bind := q.varQual(v)
	j := &exec.BatchSubstJoin{Node: n, Inner: in, Att: l.att, Outer: outer,
		OuterBuf: exec.NewBatch(len(q.vars), bcap), Rebind: rebind, Slot: slot, Cap: bcap,
		Start: lq.fill,
		Key: func() (int64, error) {
			keyVal, err := key()
			if err != nil {
				return 0, err
			}
			if !keyVal.IsNumeric() {
				return 0, fmt.Errorf("core: join key %s is not numeric", keyExpr)
			}
			return keyVal.AsInt(), nil
		},
		Probe: func(key int64) am.Iterator {
			if qv.currentOnly {
				return qv.h.src.ProbeCurrent(key)
			}
			return qv.h.src.ProbeAll(key)
		},
		Block: l.workerBlock(v, lq, bind),
	}
	// The probes share their chain walks only when the leaf's ranges and
	// qualification read the inner variable alone: a tape records no
	// outer row's bindings.
	if q.onlyVar(v) {
		j.Parts = func() am.Parts {
			if c, ok := qv.h.src.(*conventional); ok {
				return c.parts()
			}
			return am.Parts{}
		}
		j.Run = func() *buffer.Run { return qv.h.src.(*conventional).buf.Run() }
	}
	return j, nil
}

// detach is one step of a prepared retrieve's decomposition prologue:
// Ingres's one-variable detachment of v into a temporary. The step is
// lowered once; every execution gives it a fresh temporary (begin) and
// runs it (mat).
type detach struct {
	v     string
	proj  *binding // v over the temporary's projection
	mat   *exec.BatchMaterialize
	begin func() error
	tmp   *heapfile.File // this execution's temporary
}

// materializeBatch lowers a prologue node: Ingres's one-variable
// detachment. The child scan runs the variable's restricted one-variable
// query; each selected row is bound and its projection written into the
// execution's temporary; Finish flushes the temporary, which the root
// pipeline reads the variable from, through the projection binding.
func (l *lowering) materializeBatch(n *plan.Node, bcap int) (*detach, error) {
	q, db, v := l.q, l.db, n.Var
	slot, err := l.slotOf(v)
	if err != nil {
		return nil, err
	}
	child, err := l.lowerBatchLeaf(n.Children[0], nil)
	if err != nil {
		return nil, err
	}
	desc := q.qv[v].h.desc
	attrs := q.neededAttrs(v)
	if len(attrs) == 0 {
		attrs = []string{strings.ToLower(desc.Schema.Attr(0).Name)}
	}
	idx := make([]int, len(attrs))
	for i, name := range attrs {
		idx[i] = desc.Schema.Index(name)
	}
	tmpSchema := desc.Schema.Project(idx, nil)
	d := &detach{v: v, proj: bindingFor(desc, tmpSchema)}
	d.begin = func() error {
		buf, err := db.newTempBuffer(db.nextTemp())
		if err != nil {
			return err
		}
		d.tmp = heapfile.New(buf, tmpSchema.Width())
		q.temps = append(q.temps, d.tmp)
		return nil
	}
	b, out := l.binds[v], tmpSchema.NewTuple()
	d.mat = &exec.BatchMaterialize{
		Node:   n,
		Att:    l.att,
		Child:  child,
		Buf:    exec.NewBatch(len(q.vars), bcap),
		Rebind: func(row [][]byte) { b.tup = row[slot] },
		Write: func() error {
			for i, srcIdx := range idx {
				if err := tmpSchema.SetValue(out, i, desc.Schema.Value(b.tup, srcIdx)); err != nil {
					return err
				}
			}
			_, err := d.tmp.Insert(out)
			return err
		},
		Finish: func() error {
			// Flush and drop the frame: the temporary is re-read from
			// disk by the next phase, as in the prototype (its pages are
			// part of the fixed input cost of Figure 9).
			if err := d.tmp.Buffer().Invalidate(); err != nil {
				return err
			}
			// After detachment the variable ranges over the temporary;
			// its single-variable predicates were consumed.
			q.qv[v].temp = d.tmp
			n.Pages = d.tmp.Buffer().NumPages()
			return nil
		},
	}
	return d, nil
}
