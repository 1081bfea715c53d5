package plan

import (
	"fmt"
	"strings"
)

// VarInfo summarizes one tuple variable for the planner: everything the
// access-path decision needs, already extracted from the catalog and the
// analyzed restrictions so the planner never touches storage itself.
type VarInfo struct {
	Var     string
	Rel     string
	Type    string // relation type (static/rollback/historical/temporal)
	Method  string // access method (heap/hash/isam/btree)
	KeyAttr string // storage key attribute ("" for heaps)
	Keyed   bool   // probes are cheaper than scans
	Ordered bool   // range probes are cheaper than scans
	Pages   int    // relation size in pages
	Current bool   // only current versions can qualify
	Sels    int    // scalar single-variable restrictions
	TSels   int    // temporal single-variable restrictions

	// Key constant from an equality restriction on the storage key,
	// rendered only when the plan is.
	HasKeyConst bool
	KeyConst    fmt.Stringer
	// Key range from inequality restrictions on an integer storage key.
	HasLo, HasHi bool
	KeyLo, KeyHi int64

	// Usable secondary index (equality restriction on the indexed
	// attribute, no cheaper primary-key constant available).
	IdxName      string
	IdxAttr      string
	IdxStructure string
	IdxLevels    int
	IdxConst     int64

	// Statistics-derived cost inputs, present when the relation has been
	// ANALYZEd (HasStats). Each available access path carries the
	// estimated output rows and page reads of taking it, computed by the
	// caller from catalog statistics and storage geometry — the planner
	// stays storage-free and only compares them (cost.go). Without stats
	// the fixed heuristic order applies and plans carry no estimates.
	HasStats              bool
	SeqRows, SeqPages     float64
	ProbeRows, ProbePages float64 // valid when HasKeyConst && Keyed
	IdxRows, IdxPages     float64 // valid when IdxName != ""
	RangeRows, RangePages float64 // valid when (HasLo || HasHi) && Ordered
	// One substitution probe into this relation: expected matching
	// versions and page reads per outer tuple.
	SubstRows, SubstPages float64
}

// JoinEq is a join conjunct `LVar.LAttr = RVar.RAttr` in where-clause
// order.
type JoinEq struct {
	LVar, LAttr string
	RVar, RAttr string
}

// String implements fmt.Stringer.
func (j JoinEq) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LVar, j.LAttr, j.RVar, j.RAttr)
}

// Input is the planner's view of an analyzed retrieve.
type Input struct {
	Slice   func() string // renders the rollback-slice description
	Vars    []VarInfo
	Joins   []JoinEq
	Targets []string // target-list names, for the projection node
	// Residual predicates re-checked over complete bindings (nil when the
	// statement has none), rendered only when the plan is.
	Where, When fmt.Stringer
	Aggregate   bool
	Unique      bool
	Sort        bool
	Into        string
}

// Build turns the analyzed query summary into a physical plan tree. The
// strategy is the paper's: zero variables yield a single empty binding;
// one variable runs through the one-variable processor (choosing probe,
// range, index, or sequential access); two variables prefer tuple
// substitution into a keyed probe, fall back to detaching both restricted
// variables, then to a plain nested scan; three or more detach every
// restricted variable and nest the rest.
func Build(in Input) *Tree {
	t := &Tree{NumVars: len(in.Vars), Slice: in.Slice, Vars: in.Vars, joins: in.Joins}

	var root *Node
	switch len(in.Vars) {
	case 0:
		root = &Node{Op: OpOnce, Detail: text("single empty binding (no tuple variables)")}
	case 1:
		root = Leaf(&in.Vars[0])
	case 2:
		a, b := &in.Vars[0], &in.Vars[1]
		if sub := chooseSubstitution(in.Joins, in.Vars); sub != nil {
			d := varNamed(in.Vars, sub.DetachVar)
			t.Prologue = append(t.Prologue, materializeNode(d))
			j := in.Joins[sub.EqIndex]
			keyVar, keyAttr := j.RVar, j.RAttr
			if sub.Flipped {
				keyVar, keyAttr = j.LVar, j.LAttr
			}
			pv := varNamed(in.Vars, sub.ProbeVar)
			probe := substProbeNode(pv, keyVar, keyAttr)
			annotateSubst(probe, d, pv)
			root = &Node{
				Op:  OpNestLoop,
				Sub: sub,
				Detail: func() string {
					return fmt.Sprintf("tuple substitution join (%s outer, %s inner)",
						sub.DetachVar, sub.ProbeVar)
				},
				Children: []*Node{
					tempScanNode(d),
					probe,
				},
			}
		} else if a.Sels > 0 && b.Sels > 0 {
			t.Prologue = append(t.Prologue, materializeNode(a), materializeNode(b))
			root = &Node{
				Op: OpNestLoop,
				Detail: func() string {
					return fmt.Sprintf("nested scan over temporaries (%s outer, %s inner)", a.Var, b.Var)
				},
				Children: []*Node{tempScanNode(a), tempScanNode(b)},
			}
		} else {
			root = &Node{
				Op: OpNestLoop,
				Detail: func() string {
					return fmt.Sprintf("nested sequential scan (%s outer, %s inner)", a.Var, b.Var)
				},
				Children: []*Node{Leaf(a), Leaf(b)},
			}
		}
	default:
		leaves := make([]*Node, len(in.Vars))
		for i := range in.Vars {
			v := &in.Vars[i]
			if v.Sels+v.TSels > 0 {
				t.Prologue = append(t.Prologue, materializeNode(v))
				leaves[i] = tempScanNode(v)
			} else {
				leaves[i] = Leaf(v)
			}
		}
		root = leaves[0]
		for i := 1; i < len(leaves); i++ {
			inner := in.Vars[i].Var
			root = &Node{
				Op:       OpNestLoop,
				Detail:   func() string { return fmt.Sprintf("nested scan (%s inner)", inner) },
				Children: []*Node{root, leaves[i]},
			}
		}
	}

	if in.Where != nil || in.When != nil {
		root = &Node{Op: OpFilter, Detail: filterDetail(in.Where, in.When), Children: []*Node{root}}
	}
	if in.Aggregate {
		root = &Node{Op: OpAggregate, Detail: projectDetail("aggregate", in.Targets), Children: []*Node{root}}
	} else {
		root = &Node{Op: OpProject, Detail: projectDetail("project", in.Targets), Children: []*Node{root}}
	}
	if in.Unique {
		root = &Node{Op: OpDedupe, Detail: text("dedupe (retrieve unique)"), Children: []*Node{root}}
	}
	if in.Sort {
		root = &Node{Op: OpSort, Detail: text("sort (sort by)"), Children: []*Node{root}}
	}
	if in.Into != "" {
		root = &Node{Op: OpInsert, Detail: text("insert into " + in.Into), Rel: in.Into, Children: []*Node{root}}
	}
	t.Root = root
	return t
}

// Leaf builds the one-variable access node. With statistics the decision
// is cost-based: the candidate paths' estimated page reads are compared
// and the estimate is recorded on the node (bestPath, cost.go). Without
// statistics the heuristic order applies: a key constant on a keyed file
// probes; otherwise a usable secondary index probes the index; otherwise
// key bounds on an ordered file range-scan; otherwise the relation is
// scanned sequentially. The node renders v as it is when rendered: a caller
// that refreshes v must Rebind the node.
func Leaf(v *VarInfo) *Node {
	n := &Node{Var: v.Var, Rel: v.Rel}
	n.Op, _, _ = choosePath(v)
	n.Rebind(v)
	n.Detail = func() string { return leafDetail(v, n.Op) }
	return n
}

// choosePath is a leaf's access-path decision: the cheapest candidate by
// estimate when v has statistics (has reports that est applies), the
// heuristic order otherwise.
func choosePath(v *VarInfo) (op Op, est pathChoice, has bool) {
	if v.HasStats {
		best := bestPath(*v)
		return best.op, best, true
	}
	switch {
	case v.HasKeyConst && v.Keyed:
		return OpProbe, est, false
	case !v.HasKeyConst && v.IdxName != "":
		return OpIndexScan, est, false
	case (v.HasLo || v.HasHi) && v.Ordered:
		return OpRangeScan, est, false
	}
	return OpSeqScan, est, false
}

// Rebind re-derives a leaf's annotations — current-only flag, restriction
// count, pages and estimates — from v, and clears what the executor
// measured. It reports false, changing nothing, when v now calls for a
// different access path than the node's.
func (n *Node) Rebind(v *VarInfo) bool {
	op, est, has := choosePath(v)
	if n.Op != op {
		return false
	}
	n.Current, n.Sels, n.Pages = v.Current, v.Sels+v.TSels, v.Pages
	n.HasEst, n.EstRows, n.EstPages = has, est.rows, est.pages
	n.IO, n.ActRows = IOStats{}, 0
	return true
}

// Rebind re-derives the value-dependent annotations of a tree Build made
// from t.Vars, which the caller has refreshed in place — pages, current-
// only flags, estimates — and clears what the executor measured, so the
// tree renders exactly as one built afresh from the same inputs. It reports
// false when Build would now choose a different access path or
// substitution; the tree must then be built again.
func (t *Tree) Rebind() bool {
	ok := true
	t.Walk(func(n *Node) {
		switch {
		case !ok:
		case n.Op == OpNestLoop && len(t.Vars) == 2:
			sub := chooseSubstitution(t.joins, t.Vars)
			if (sub == nil) != (n.Sub == nil) || (sub != nil && *sub != *n.Sub) {
				ok = false
				return
			}
			if sub != nil {
				probe, pv := n.Children[1], varNamed(t.Vars, sub.ProbeVar)
				probe.Current, probe.Sels, probe.Pages = pv.Current, pv.Sels+pv.TSels, pv.Pages
				annotateSubst(probe, varNamed(t.Vars, sub.DetachVar), pv)
			}
		case n.Op == OpSubstProbe: // annotated with its loop
		case n.Var != "" && n.Op != OpMaterialize && n.Op != OpTempScan:
			ok = n.Rebind(varNamed(t.Vars, n.Var))
			return
		default:
			n.Pages = 0 // temporaries: filled in by the run
		}
		n.IO, n.ActRows = IOStats{}, 0
	})
	return ok
}

// varNamed finds a variable's summary.
func varNamed(vars []VarInfo, name string) *VarInfo {
	for i := range vars {
		if vars[i].Var == name {
			return &vars[i]
		}
	}
	return nil
}

// annotateSubst sets a substitution probe's estimate: the detached side's
// output rows, each probing once. Both sides need statistics.
func annotateSubst(probe *Node, detach, pv *VarInfo) {
	probe.HasEst, probe.EstRows, probe.EstPages = false, 0, 0
	if detach.HasStats && pv.HasStats {
		outer := bestPath(*detach)
		probe.HasEst = true
		probe.EstRows = outer.rows * pv.SubstRows
		probe.EstPages = outer.rows * pv.SubstPages
	}
}

// text is the Detail of a node whose description needs no formatting.
func text(s string) func() string { return func() string { return s } }

func bound(has bool, v int64, inf string) string {
	if !has {
		return inf
	}
	return fmt.Sprintf("%d", v)
}

func probeKind(method string) string {
	switch method {
	case "hash":
		return "hashed access"
	case "isam":
		return "ISAM access"
	case "btree":
		return "B-tree access"
	}
	return "keyed probe"
}

func materializeNode(v *VarInfo) *Node {
	return &Node{
		Op:       OpMaterialize,
		Var:      v.Var,
		Rel:      v.Rel,
		Detail:   func() string { return fmt.Sprintf("detach %s into temporary", v.Var) },
		Children: []*Node{Leaf(v)},
	}
}

func tempScanNode(v *VarInfo) *Node {
	return &Node{
		Op:     OpTempScan,
		Var:    v.Var,
		Rel:    v.Rel,
		Detail: func() string { return fmt.Sprintf("temporary scan of detached %s", v.Var) },
	}
}

func substProbeNode(v *VarInfo, keyVar, keyAttr string) *Node {
	n := &Node{
		Op:      OpSubstProbe,
		Var:     v.Var,
		Rel:     v.Rel,
		Current: v.Current,
		Sels:    v.Sels + v.TSels,
		Pages:   v.Pages,
		Detail: func() string {
			return fmt.Sprintf("substitution probe %s: %s, %s = %s.%s",
				v.Var, probeKind(v.Method), v.KeyAttr, keyVar, keyAttr)
		},
	}
	return n
}

// chooseSubstitution picks the join conjunct to drive a tuple-substitution
// join: one side must equate a variable's storage key on a keyed file.
// When both sides carry statistics, the candidate minimizing estimated
// pages (outer rows times per-probe pages) wins; otherwise conjuncts are
// considered in where-clause order and a hash probe is preferred over any
// other keyed structure because each probe costs a single bucket chain.
func chooseSubstitution(joins []JoinEq, vars []VarInfo) *Subst {
	var best *Subst
	bestHash := false
	bestCost := 0.0
	costed := false
	for i, j := range joins {
		sides := [2]struct {
			probeVar, probeAttr, detachVar string
			flipped                        bool
		}{
			{j.LVar, j.LAttr, j.RVar, false},
			{j.RVar, j.RAttr, j.LVar, true},
		}
		for _, s := range sides {
			pv, dv := varNamed(vars, s.probeVar), varNamed(vars, s.detachVar)
			if pv == nil || dv == nil {
				continue
			}
			if pv.KeyAttr == "" || !strings.EqualFold(pv.KeyAttr, s.probeAttr) || !pv.Keyed {
				continue
			}
			cand := &Subst{ProbeVar: s.probeVar, DetachVar: s.detachVar, EqIndex: i, Flipped: s.flipped}
			if pv.HasStats && dv.HasStats {
				cost := substCost(*dv, *pv)
				if !costed || cost < bestCost {
					best, bestCost, costed = cand, cost, true
					bestHash = pv.Method == "hash"
				}
				continue
			}
			if costed {
				continue // a costed candidate outranks uncosted ones
			}
			isHash := pv.Method == "hash"
			if best == nil || (isHash && !bestHash) {
				best, bestHash = cand, isHash
			}
		}
	}
	return best
}

func filterDetail(where, when fmt.Stringer) func() string {
	return func() string {
		var parts []string
		if where != nil {
			parts = append(parts, "where "+where.String())
		}
		if when != nil {
			parts = append(parts, "when "+when.String())
		}
		return "filter: " + strings.Join(parts, " ")
	}
}

func projectDetail(kind string, targets []string) func() string {
	return func() string {
		if len(targets) == 0 {
			return kind
		}
		return fmt.Sprintf("%s (%s)", kind, strings.Join(targets, ", "))
	}
}
