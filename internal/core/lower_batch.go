package core

import (
	"fmt"

	"tdbms/internal/am"
	"tdbms/internal/exec"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/secindex"
)

// This file lowers a physical plan onto the vectorized batch executor —
// the batch twin of lower.go. The batch row layout is one slot per tuple
// variable, in q.vars order: a leaf fills only its own slot, joins merge
// slots, and consumers rebind a row's slots into the evaluation
// environment before evaluating predicates or targets against it. The
// same Bind/Pred/Emit closures drive both executors, so the two paths
// qualify, order, and emit rows identically; only the cadence of the
// attribution brackets changes (per batch instead of per tuple), which
// cannot move page counts because binding and evaluation do no I/O.

// slotOf maps a tuple variable to its batch slot: its index in q.vars.
func (l *lowering) slotOf(v string) int {
	for i, name := range l.q.vars {
		if name == v {
			return i
		}
	}
	return 0
}

// pipelineRebind builds the rebinding closure of the root pipeline: it
// installs a batch row's bound slots into the evaluation environment.
// Bindings are resolved when the closure is built, so it must be built
// after the decomposition prologue ran (detachments swap a variable's
// binding to its temporary's).
func (l *lowering) pipelineRebind() func(row [][]byte) {
	binds := make([]*binding, len(l.q.vars))
	for i, v := range l.q.vars {
		binds[i] = l.q.env.vars[v]
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
func (l *lowering) lowerBatchNode(n *plan.Node, bcap int, rebind func(row [][]byte)) exec.BatchOperator {
	slots := len(l.q.vars)
	switch n.Op {
	case plan.OpProject, plan.OpAggregate:
		return &exec.BatchProject{Node: n, Child: l.lowerBatchNode(n.Children[0], bcap, rebind),
			Rebind: rebind, Emit: l.out.emitRow}
	case plan.OpFilter:
		return &exec.BatchFilter{Node: n, Child: l.lowerBatchNode(n.Children[0], bcap, rebind),
			Rebind: rebind, Pred: l.out.residual}
	case plan.OpNestLoop:
		outer := l.lowerBatchNode(n.Children[0], bcap, rebind)
		var inner exec.BatchOperator
		if n.Sub != nil {
			inner = l.lowerBatchSubstProbe(n.Children[1], n.Sub)
		} else {
			inner = l.lowerBatchNode(n.Children[1], bcap, rebind)
		}
		return &exec.BatchNestedLoop{Node: n, Outer: outer, Inner: inner, Rebind: rebind,
			OuterBuf: exec.NewBatch(slots, bcap), InnerBuf: exec.NewBatch(slots, bcap)}
	case plan.OpOnce:
		return &exec.BatchOnce{}
	default:
		return l.lowerBatchLeaf(n)
	}
}

// lowerBatchLeaf lowers a one-variable access node to its batch cursor,
// mirroring lowerLeaf's access-path cases. The leaf binds and qualifies
// each tuple through the same environment closures as the tuple path and
// stores qualifiers in its own slot.
func (l *lowering) lowerBatchLeaf(n *plan.Node) exec.BatchOperator {
	q := l.q
	v := n.Var
	qv := q.qv[v]
	slot := l.slotOf(v)
	// Bind resolves the binding at call time, not capture time: after a
	// detachment the variable's binding is swapped to the temporary's, so
	// the compiled qualification is rebuilt whenever the binding pointer
	// changes.
	var cq compiledQual
	var cqb *binding
	bind := func(rid page.RID, tup []byte) (bool, error) {
		b := q.env.vars[v]
		b.tup = tup
		if cqb != b {
			cq, cqb = q.compileVarQual(v), b
		}
		return cq(tup)
	}
	end := func() { q.env.vars[v].tup = nil }

	switch n.Op {
	case plan.OpTempScan:
		// A detached temporary holds only qualifying projections; its
		// scan applies no predicates.
		n.Pages = qv.temp.hf.Buffer().NumPages()
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Readahead: l.ra, Slot: slot,
			Start: func() (am.Iterator, error) { return qv.temp.hf.Scan(), nil },
			Bind: func(rid page.RID, tup []byte) (bool, error) {
				q.env.vars[v].tup = tup
				return true, nil
			},
			End: end,
		}
	case plan.OpProbe:
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot,
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
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot,
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
		return &exec.BatchIndexScan{Node: n, Att: l.att, Slot: slot,
			Lookup: func() ([]secindex.TID, error) {
				if qv.currentOnly && ix.CanProbeCurrent() {
					return ix.ProbeCurrent(qv.idxConst)
				}
				return ix.ProbeAll(qv.idxConst)
			},
			Fetch: func(tid secindex.TID) ([]byte, bool, error) {
				tup, err := qv.h.src.FetchTID(secTID{history: tid.History, rid: tid.RID})
				if err != nil {
					return nil, false, err
				}
				pass, err := bind(tid.RID, tup)
				return tup, pass, err
			},
			End: end,
		}
	default: // plan.OpSeqScan
		return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Readahead: l.ra, Slot: slot,
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

// lowerBatchSubstProbe lowers the inner side of a tuple-substitution join
// to a batch cursor: the nested loop rebinds the outer row before opening
// it, so Start reads the join key from the current outer binding.
func (l *lowering) lowerBatchSubstProbe(n *plan.Node, sub *plan.Subst) exec.BatchOperator {
	q := l.q
	v := n.Var
	qv := q.qv[v]
	slot := l.slotOf(v)
	conj := l.joins[sub.EqIndex]
	keyExpr := conj.r
	if sub.Flipped {
		keyExpr = conj.l
	}
	var cq compiledQual
	var cqb *binding
	return &exec.BatchScan{Node: n, Att: l.att, Arena: &l.db.arena, Slot: slot,
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
			b := q.env.vars[v]
			b.tup = tup
			if cqb != b {
				cq, cqb = q.compileVarQual(v), b
			}
			return cq(tup)
		},
	}
}

// materializeBatch is the batch twin of materialize: the detachment's
// child runs as a batch scan, and each selected row is rebound and
// written into the temporary. The rebinding covers only the detached
// variable, resolved when the step is built — before its own detachment,
// after every earlier one.
func (l *lowering) materializeBatch(n *plan.Node, bcap int) (*exec.BatchMaterialize, error) {
	write, finish, err := l.matParts(n)
	if err != nil {
		return nil, err
	}
	b := l.q.env.vars[n.Var]
	slot := l.slotOf(n.Var)
	return &exec.BatchMaterialize{
		Node:   n,
		Att:    l.att,
		Child:  l.lowerBatchLeaf(n.Children[0]),
		Buf:    exec.NewBatch(len(l.q.vars), bcap),
		Rebind: func(row [][]byte) { b.tup = row[slot] },
		Write:  write,
		Finish: finish,
	}, nil
}
