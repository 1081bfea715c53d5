package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"tdbms/internal/buffer"
	"tdbms/internal/catalog"
	"tdbms/internal/exec"
	"tdbms/internal/plan"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// execRetrieve plans and runs a retrieve statement.
func (db *Conn) execRetrieve(s *tquel.RetrieveStmt) (*Result, error) {
	res, _, err := db.runRetrieve(s)
	return res, err
}

// runRetrieve is the three-layer query path: semantic analysis (this
// package) summarizes the statement for the planner (internal/plan),
// whose tree is lowered onto the executor (internal/exec) — once per
// statement shape, then bound and executed. The returned tree carries the
// per-operator page attribution of the run — the executed plan, not a
// prediction.
func (db *Conn) runRetrieve(s *tquel.RetrieveStmt) (*Result, *plan.Tree, error) {
	e, err := db.preparedRetrieve(s)
	if err != nil {
		return nil, nil, err
	}
	return db.execute(e)
}

// preparedRetrieve returns s prepared and bound: the session's entry for
// its shape when lockSpec found one and its plan still fits s's values,
// else a fresh entry. A fresh entry is kept when s is the statement
// lockSpec looked up — a plain retrieve run by ExecStmt or QueryPlan, not
// an append's embedded query — and not a grouped aggregate, whose
// grouping matches targets by their rendering, literals included.
func (db *Conn) preparedRetrieve(s *tquel.RetrieveStmt) (*stmtEntry, error) {
	c := &db.cache
	keep := c.stmt == s
	if keep {
		c.sync(db.epoch)
		if e := c.hit; e != nil {
			e.bindLits(c.w.lits)
			if err := db.bind(e.q); err != nil {
				return nil, err
			}
			if db.rebindPlan(e) {
				return e, nil
			}
		}
	}
	e := &stmtEntry{}
	if keep {
		s = cloneRetrieve(s)
		var w shaper
		w.retrieve(s)
		e.key, e.lits = string(c.w.buf), w.lits
	}
	q, err := db.analyze(s)
	if err != nil {
		return nil, err
	}
	e.q = q
	if err := db.plan(e); err != nil {
		return nil, err
	}
	if keep && !e.out.grouped {
		e.locks = db.newLatchSet(db.relsOf(s.Targets, s.Where, s.When, s.Valid), nil)
		c.put(e)
	}
	return e, nil
}

// plan builds a retrieve's output, plan tree and operators.
func (db *Conn) plan(e *stmtEntry) error {
	q := e.q
	out := &emitter{q: q}
	if err := out.prepare(); err != nil {
		return err
	}
	t, conjs := db.buildPlan(q, len(out.aggs) > 0)
	// The attribution watches every buffer the query can reach: the
	// catalog's relations (indexes included) plus the query's own
	// temporaries as they appear.
	att := exec.NewAttribution(func() buffer.Stats {
		st := db.statsFn()
		for _, tmp := range q.temps {
			st = st.Add(tmp.Buffer().Stats())
		}
		return st
	})
	l := &lowering{db: db, q: q, out: out, att: att, joins: conjs,
		ra: db.bufferPolicy().Readahead, binds: q.env.vars}
	// Decomposition prologue: detach restricted variables into
	// temporaries before the root pipeline runs over them. The batch
	// capacity changes the cadence of the run, never the pages it reads
	// or their order.
	bcap := db.batchCap()
	for _, m := range t.Prologue {
		d, err := l.materializeBatch(m, bcap)
		if err != nil {
			return err
		}
		l.steps = append(l.steps, d)
	}
	// The root pipeline sees each detached variable through its
	// temporary's projection.
	l.binds = maps.Clone(q.env.vars)
	for _, d := range l.steps {
		l.binds[d.v] = d.proj
	}
	out.compile(l.binds)
	root, err := l.lowerBatchNode(pipelineRoot(t.Root), bcap, l.pipelineRebind())
	if err != nil {
		return err
	}
	e.out, e.tree, e.steps, e.root, e.att = out, t, l.steps, root, att
	e.buf = exec.NewBatch(len(q.vars), bcap)
	return nil
}

// rebindPlan refreshes the planner's view of a bound query — relation
// sizes, key ranges, current-only flags, estimates — and reports whether
// the entry's plan is still the one the planner would build.
func (db *Conn) rebindPlan(e *stmtEntry) bool {
	for i, v := range e.q.vars {
		e.tree.Vars[i] = db.varInfo(e.q, v)
	}
	return e.tree.Rebind()
}

// execute runs a prepared, bound retrieve. What an earlier execution left
// behind is reset first: the arena, the temporaries, the emitter and the
// attribution.
func (db *Conn) execute(e *stmtEntry) (*Result, *plan.Tree, error) {
	q, out, t, s := e.q, e.out, e.tree, e.q.stmt
	db.arena.Reset()
	q.temps = q.temps[:0]
	out.reset()
	e.att.Restart()
	for _, d := range e.steps {
		if err := d.begin(); err != nil {
			return nil, nil, err
		}
		if err := d.mat.Run(); err != nil {
			return nil, nil, err
		}
	}
	if len(e.steps) > 0 {
		// The temporaries are built: their sizes belong in the plan.
		t.Walk(func(n *plan.Node) {
			if n.Op == plan.OpTempScan {
				n.Pages = q.qv[n.Var].temp.Buffer().NumPages()
			}
		})
	}
	if err := exec.RunBatches(e.root, e.buf, nil); err != nil {
		return nil, nil, err
	}
	if len(out.aggs) > 0 {
		if err := out.finalizeAggregates(); err != nil {
			return nil, nil, err
		}
	}
	res := &Result{Cols: slices.Clone(out.cols), Rows: out.rows}
	if s.Unique {
		res.Rows = dedupeRows(res.Rows)
	}
	if len(s.Sort) > 0 {
		if err := sortRows(res.Cols, res.Rows, s.Sort); err != nil {
			return nil, nil, err
		}
	}
	if s.Into != "" {
		// The result relation's pages are charged to the insert node.
		ins := t.FindOp(plan.OpInsert)
		prev := e.att.Enter(ins)
		err := db.materialize(s.Into, out, res)
		e.att.Leave(prev)
		if err != nil {
			return nil, nil, err
		}
		res.Affected = len(res.Rows)
		res.Cols, res.Rows = nil, nil
	}
	e.att.Finish(pipelineRoot(t.Root))
	for _, tmp := range q.temps {
		st := tmp.Buffer().Stats()
		res.Input += st.Reads
		res.InputOps += st.ReadOps
		res.Output += st.Writes
		res.TempInput += st.Reads
		res.TempOutput += st.Writes
		_ = tmp.Buffer().Close() // temporaries are memory-backed and being discarded
	}
	return res, t, nil
}

// emitter accumulates output rows, including the implicit valid-time
// columns when the query has valid-time semantics. In aggregate mode it
// accumulates per-tuple values instead and produces one row at the end.
type emitter struct {
	q        *query
	cols     []string
	attrs    []tuple.Attr // inferred target attributes (for `into`)
	hasValid bool
	rows     [][]tuple.Value
	aggs     []*tquel.AggExpr
	states   []*aggState // non-grouped accumulators
	// Grouped aggregation (`sum(x.a by x.b)`), groups keyed by their
	// grouping values (appendKey).
	grouped    bool
	byExprs    []tquel.Expr
	groups     map[string]*groupAgg
	groupOrder []*groupAgg
	key        []byte

	// The compiled evaluation sites (compile). residual is the Filter's
	// predicate: the whole where and when clauses over a complete binding,
	// conjuncts the leaves already applied included (detached variables
	// satisfy theirs through the temporary's projected attributes). Then
	// the target list — per row, or in aggregate mode at output — the
	// result validity, the aggregates' arguments (nil for count and any)
	// and the grouping expressions. The aggregate output phase reads the
	// finalized aggregates from aggVals and the group's values from
	// byVals, which holds the current row's grouping values while
	// accumulating.
	residual boolFn
	targets  []valFn
	validity func() (temporal.Interval, bool, error)
	args     []valFn
	by       []valFn
	aggVals  []tuple.Value
	byVals   []tuple.Value
}

// groupAgg holds one group's accumulators and grouping values.
type groupAgg struct {
	states []*aggState
	byVals []tuple.Value
}

// prepare infers the output schema. Duplicate result names are fine for
// display (the paper's Q09..Q12 output both h.id and i.id) but not when
// materializing into a relation.
func (e *emitter) prepare() error {
	s := e.q.stmt
	names := map[string]bool{}
	for _, t := range s.Targets {
		name := strings.ToLower(t.Name)
		if names[name] && s.Into != "" {
			return fmt.Errorf("core: duplicate result attribute %q", t.Name)
		}
		names[name] = true
		a, err := e.q.inferAttr(t)
		if err != nil {
			return err
		}
		e.cols = append(e.cols, name)
		e.attrs = append(e.attrs, a)
		collectAggs(t.Expr, &e.aggs)
	}
	if len(e.aggs) > 0 {
		if s.Valid != nil || s.Into != "" {
			return fmt.Errorf("core: aggregate retrieves take no valid clause or into destination")
		}
		// Every aggregate must share one grouping (possibly empty).
		byRender := func(a *tquel.AggExpr) string {
			parts := make([]string, len(a.By))
			for i, b := range a.By {
				parts[i] = b.String()
			}
			return strings.Join(parts, ";")
		}
		want := byRender(e.aggs[0])
		for _, a := range e.aggs[1:] {
			if byRender(a) != want {
				return fmt.Errorf("core: aggregates in one target list must share the same by-list")
			}
		}
		e.byExprs = e.aggs[0].By
		e.grouped = len(e.byExprs) > 0
		byKeys := map[string]bool{} // renderings of the grouping expressions
		for _, b := range e.byExprs {
			var nested []*tquel.AggExpr
			collectAggs(b, &nested)
			if len(nested) > 0 {
				return fmt.Errorf("core: grouping expressions cannot contain aggregates")
			}
			byKeys[b.String()] = true
		}
		// Non-aggregate targets must be grouping expressions.
		for _, t := range s.Targets {
			var inTarget []*tquel.AggExpr
			collectAggs(t.Expr, &inTarget)
			if len(inTarget) > 0 {
				continue
			}
			if hasBareAttr(t.Expr) && !byKeys[t.Expr.String()] {
				if e.grouped {
					return fmt.Errorf("core: target %q must be a grouping expression or an aggregate", t.Name)
				}
				return fmt.Errorf("core: target %q mixes tuple attributes with aggregates", t.Name)
			}
		}
		return nil
	}
	if s.Valid != nil {
		e.hasValid = true
	} else {
		for _, v := range e.q.vars {
			if e.q.qv[v].h.desc.VF >= 0 {
				e.hasValid = true
				break
			}
		}
	}
	if e.hasValid {
		e.cols = append(e.cols, catalog.AttrValidFrom, catalog.AttrValidTo)
	}
	return nil
}

// compile compiles the emitter's evaluation sites against the pipeline's
// bindings, vars.
func (e *emitter) compile(vars map[string]*binding) {
	q, s := e.q, e.q.stmt
	c := &compiler{e: q.env, vars: vars}
	var checks []boolFn
	if s.Where != nil {
		checks = append(checks, c.bool(s.Where))
	}
	if s.When != nil {
		checks = append(checks, c.tbool(s.When))
	}
	e.residual = all(checks)
	for _, a := range e.aggs {
		var arg valFn
		if a.Fn != "count" && a.Fn != "any" {
			arg = c.expr(a.Arg)
		}
		e.args = append(e.args, arg)
	}
	for _, b := range e.byExprs {
		e.by = append(e.by, c.expr(b))
	}
	if len(e.aggs) > 0 {
		e.aggVals = make([]tuple.Value, len(e.aggs))
		e.byVals = make([]tuple.Value, len(e.byExprs))
		c.aggs, c.aggVals = e.aggs, e.aggVals
		if e.grouped {
			for _, b := range e.byExprs {
				c.by = append(c.by, b.String())
			}
			c.byVals = e.byVals
		}
	} else if e.hasValid {
		e.validity = c.validity(s.Valid, q.vars)
	}
	for _, t := range s.Targets {
		e.targets = append(e.targets, c.expr(t.Expr))
	}
}

// reset starts an execution: no rows, fresh accumulators.
func (e *emitter) reset() {
	e.rows = nil
	if e.grouped {
		e.groups, e.groupOrder = map[string]*groupAgg{}, nil
	} else if len(e.aggs) > 0 {
		e.states = newStates(e.aggs)
	}
}

// newStates returns fresh accumulators for aggs.
func newStates(aggs []*tquel.AggExpr) []*aggState {
	states := make([]*aggState, len(aggs))
	for i, a := range aggs {
		states[i] = &aggState{fn: a.Fn}
	}
	return states
}

// inferAttr derives the stored attribute for a target expression.
func (q *query) inferAttr(t tquel.Target) (tuple.Attr, error) {
	kind, length, err := q.inferKind(t.Expr)
	if err != nil {
		return tuple.Attr{}, err
	}
	return tuple.Attr{Name: strings.ToLower(t.Name), Kind: kind, Len: length}, nil
}

func (q *query) inferKind(x tquel.Expr) (tuple.Kind, int, error) {
	switch ex := x.(type) {
	case *tquel.ConstExpr:
		if ex.Val.Kind == tuple.Char {
			return tuple.Char, max(len(ex.Val.S), 1), nil
		}
		return ex.Val.Kind, 0, nil
	case *tquel.AttrExpr:
		b, ok := q.env.vars[ex.Var]
		if !ok {
			return 0, 0, fmt.Errorf("core: unknown range variable %q", ex.Var)
		}
		i := b.schema.Index(ex.Attr)
		if i < 0 {
			return 0, 0, fmt.Errorf("core: %s has no attribute %q", ex.Var, ex.Attr)
		}
		a := b.schema.Attr(i)
		return a.Kind, a.Len, nil
	case *tquel.UnaryExpr:
		return q.inferKind(ex.X)
	case *tquel.BinaryExpr:
		lk, _, err := q.inferKind(ex.L)
		if err != nil {
			return 0, 0, err
		}
		rk, _, err := q.inferKind(ex.R)
		if err != nil {
			return 0, 0, err
		}
		if lk == tuple.F4 || lk == tuple.F8 || rk == tuple.F4 || rk == tuple.F8 {
			return tuple.F8, 0, nil
		}
		return tuple.I4, 0, nil
	case *tquel.TAttrExpr:
		return tuple.Temporal, 0, nil
	case *tquel.AggExpr:
		switch ex.Fn {
		case "count", "any":
			return tuple.I4, 0, nil
		case "avg":
			return tuple.F8, 0, nil
		default:
			return q.inferKind(ex.Arg)
		}
	}
	return 0, 0, fmt.Errorf("core: cannot infer type of %s", x)
}

// emitRow consumes one qualified binding: it accumulates aggregates, or
// computes the result validity and appends the output row. This is the
// Emit hook of the pipeline's root operator.
func (e *emitter) emitRow() error {
	if len(e.aggs) > 0 {
		states := e.states
		if e.grouped {
			e.key = e.key[:0]
			for k, by := range e.by {
				v, err := by()
				if err != nil {
					return err
				}
				e.byVals[k] = v
				e.key = appendKey(e.key, v)
			}
			g, ok := e.groups[string(e.key)]
			if !ok {
				g = &groupAgg{states: newStates(e.aggs), byVals: slices.Clone(e.byVals)}
				e.groups[string(e.key)] = g
				e.groupOrder = append(e.groupOrder, g)
			}
			states = g.states
		}
		for i, arg := range e.args {
			var v tuple.Value
			if arg != nil {
				var err error
				if v, err = arg(); err != nil {
					return err
				}
			}
			if err := states[i].add(v); err != nil {
				return err
			}
		}
		return nil
	}

	var validOut temporal.Interval
	if e.hasValid {
		iv, ok, err := e.validity()
		if err != nil {
			return err
		}
		if !ok {
			return nil // empty validity: the result tuple denotes nothing
		}
		validOut = iv
	}
	row, err := e.row(len(e.cols))
	if err != nil {
		return err
	}
	if e.hasValid {
		row = append(row,
			tuple.TemporalValue(int64(validOut.From)),
			tuple.TemporalValue(int64(validOut.To)))
	}
	e.rows = append(e.rows, row)
	return nil
}

// row evaluates the target list into a row with room for n values.
func (e *emitter) row(n int) ([]tuple.Value, error) {
	row := make([]tuple.Value, 0, n)
	for _, t := range e.targets {
		v, err := t()
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// finalizeAggregates produces the output rows of an aggregate retrieve from
// the accumulated states: one row total, or one per group.
func (e *emitter) finalizeAggregates() error {
	output := func(states []*aggState) error {
		for i, st := range states {
			v, err := st.result()
			if err != nil {
				return err
			}
			e.aggVals[i] = v
		}
		row, err := e.row(len(e.targets))
		if err != nil {
			return err
		}
		e.rows = append(e.rows, row)
		return nil
	}
	if !e.grouped {
		return output(e.states)
	}
	for _, g := range e.groupOrder {
		copy(e.byVals, g.byVals)
		if err := output(g.states); err != nil {
			return err
		}
	}
	return nil
}

// materialize stores the emitted rows as a new relation (retrieve into).
// The result is historical when the query carries valid time, static
// otherwise; rollback time is never copied (the result is a snapshot).
func (db *Conn) materialize(name string, e *emitter, res *Result) error {
	create := &tquel.CreateStmt{Rel: name, Attrs: e.attrs}
	if e.hasValid {
		create.Model = "interval" // the snapshot keeps valid time only
	}
	if _, err := db.execCreate(create); err != nil {
		return err
	}
	h, err := db.handle(name)
	if err != nil {
		return err
	}
	desc := h.desc
	tup := desc.Schema.NewTuple()
	for _, row := range res.Rows {
		for i := range row {
			if err := desc.Schema.SetValue(tup, i, row[i]); err != nil {
				return err
			}
		}
		if _, err := h.src.InsertCurrent(tup); err != nil {
			return err
		}
	}
	for _, b := range h.src.Buffers() {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// dedupeRows removes duplicate rows (retrieve unique).
func dedupeRows(rows [][]tuple.Value) [][]tuple.Value {
	seen := map[string]bool{}
	out := rows[:0]
	var key []byte
	for _, r := range rows {
		key = key[:0]
		for _, v := range r {
			key = appendKey(key, v)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

// appendKey appends v to a row key: its kind, then its value — a string
// by its length and bytes, a number by its eight bytes — so two rows of
// values have the same key exactly when their values are pairwise of the
// same kind and equal.
func appendKey(key []byte, v tuple.Value) []byte {
	key = append(key, byte(v.Kind))
	switch v.Kind {
	case tuple.Char:
		key = binary.AppendUvarint(key, uint64(len(v.S)))
		return append(key, v.S...)
	case tuple.F4, tuple.F8:
		return binary.LittleEndian.AppendUint64(key, math.Float64bits(v.F))
	}
	return binary.LittleEndian.AppendUint64(key, uint64(v.I))
}
