// Package plan is the physical-plan layer of the query processor. The
// semantic analyzer (internal/core) summarizes an analyzed TQuel retrieve
// as a plan.Input; Build turns that summary into a tree of typed physical
// operators — scans, probes, tuple-substitution joins, temporary
// materializations, filters, projections — mirroring the decomposition
// strategy the paper inherits from Ingres ("one variable queries are
// processed by a one variable query processor ... multiple variable
// queries are decomposed").
//
// The package is deliberately storage-free: it decides and describes
// access paths but never touches pages, buffers, or files (the layering
// check enforces this). The cursor executor (internal/exec) walks the tree
// and charges every page read and write back to the node that caused it,
// so a rendered plan shows the measured cost of each operator.
package plan

// Op identifies a physical operator.
type Op int

// Physical operators.
const (
	// OpOnce yields a single empty binding: the executor shape of a
	// retrieve with no tuple variables.
	OpOnce Op = iota
	// OpSeqScan reads every page of a relation.
	OpSeqScan
	// OpProbe fetches by storage key (hash bucket, ISAM probe, B-tree
	// descent).
	OpProbe
	// OpRangeScan reads a key range of an order-preserving file.
	OpRangeScan
	// OpIndexScan resolves tuple ids through a secondary index, then
	// fetches each version.
	OpIndexScan
	// OpTempScan reads a materialized temporary.
	OpTempScan
	// OpSubstProbe probes by a key computed from the current outer binding
	// — the inner side of a tuple-substitution join.
	OpSubstProbe
	// OpNestLoop re-opens its inner child for every outer binding.
	OpNestLoop
	// OpMaterialize detaches a one-variable subquery into a temporary
	// (the prologue of Ingres decomposition).
	OpMaterialize
	// OpFilter applies the residual where/when predicates.
	OpFilter
	// OpProject evaluates the target list.
	OpProject
	// OpAggregate accumulates aggregate functions over qualified bindings.
	OpAggregate
	// OpDedupe drops duplicate result rows (retrieve unique).
	OpDedupe
	// OpSort orders result rows (sort by).
	OpSort
	// OpInsert stores the result into a new relation (retrieve into).
	OpInsert
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpOnce:
		return "once"
	case OpSeqScan:
		return "seqscan"
	case OpProbe:
		return "probe"
	case OpRangeScan:
		return "rangescan"
	case OpIndexScan:
		return "indexscan"
	case OpTempScan:
		return "tempscan"
	case OpSubstProbe:
		return "substprobe"
	case OpNestLoop:
		return "nestloop"
	case OpMaterialize:
		return "materialize"
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpAggregate:
		return "aggregate"
	case OpDedupe:
		return "dedupe"
	case OpSort:
		return "sort"
	case OpInsert:
		return "insert"
	}
	return "op?"
}

// IOStats is the per-operator page-access attribution. It mirrors the
// buffer layer's counters but is declared here as plain integers so the
// plan layer stays independent of the storage stack.
type IOStats struct {
	Reads  int64 // pages fetched from storage
	Writes int64 // pages written back
	Hits   int64 // requests satisfied by the buffer without I/O
}

// Add returns s + t.
func (s IOStats) Add(t IOStats) IOStats {
	return IOStats{Reads: s.Reads + t.Reads, Writes: s.Writes + t.Writes, Hits: s.Hits + t.Hits}
}

// Node is one operator of a physical plan. After execution its IO field
// holds the pages the operator itself caused to move (children are
// accounted separately).
type Node struct {
	Op  Op
	Var string // tuple variable (leaves and materializations)
	Rel string // relation name (leaves and materializations)
	// Detail renders the human-readable description of the access
	// decision. Only Render asks for it, so Build formats nothing for a
	// plan that is executed and thrown away.
	Detail   func() string
	Current  bool   // restricted to current versions (two-level fast path)
	Sels     int    // single-variable restrictions applied at this leaf
	Pages    int    // relation size when the plan was built (temps: filled at runtime)
	Sub      *Subst // substitution choice (OpNestLoop only)
	Children []*Node

	// Cost-model annotations, set by the planner when the relation has
	// catalog statistics (HasEst false means the heuristic path chose the
	// operator and no estimate is printed or asserted).
	HasEst   bool
	EstRows  float64 // estimated rows the operator produces
	EstPages float64 // estimated pages the operator reads

	// IO is filled in by the executor: the page accesses attributed to
	// this operator during the run.
	IO IOStats
	// ActRows counts the rows the operator actually produced, for the
	// estimate-vs-actual report.
	ActRows int64
}

// Subst records a tuple-substitution decision on a join conjunct
// `probe.key = detach.attr`: the detach side is materialized first, then
// the probe side is probed once per temporary tuple.
type Subst struct {
	ProbeVar  string
	DetachVar string
	// EqIndex is the position of the chosen conjunct in Input.Joins.
	EqIndex int
	// Flipped is true when the probe side is the right operand of the
	// conjunct (the key expression is then the left operand).
	Flipped bool
}

// Tree is a complete physical plan: zero or more materialization steps
// (the decomposition prologue) followed by the root pipeline.
type Tree struct {
	NumVars  int
	Slice    func() string // renders the rollback-slice description; may be nil
	Vars     []VarInfo
	Prologue []*Node
	Root     *Node

	joins []JoinEq // the substitution candidates, for Rebind
}

// FindOp returns the first node with the given operator, searching the
// prologue then the root pipeline, or nil.
func (t *Tree) FindOp(op Op) *Node {
	for _, n := range t.Prologue {
		if f := findOp(n, op); f != nil {
			return f
		}
	}
	return findOp(t.Root, op)
}

func findOp(n *Node, op Op) *Node {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if f := findOp(c, op); f != nil {
			return f
		}
	}
	return nil
}

// Walk calls fn for every node of the tree, prologue first.
func (t *Tree) Walk(fn func(n *Node)) {
	for _, n := range t.Prologue {
		walk(n, fn)
	}
	walk(t.Root, fn)
}

func walk(n *Node, fn func(n *Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// TotalIO sums the attribution over every node.
func (t *Tree) TotalIO() IOStats {
	var sum IOStats
	t.Walk(func(n *Node) { sum = sum.Add(n.IO) })
	return sum
}
