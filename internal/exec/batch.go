package exec

import (
	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/secindex"
)

// DefaultBatchCap is the row capacity of a batch when the caller does not
// choose one.
const DefaultBatchCap = 256

// Batch is a fixed-capacity block of rows. Rows are stored row-major
// (slots per row); sel holds the indices of the rows still selected, in
// order. A leaf appends only qualifying rows, so for leaves sel is the
// identity; filters compact sel in place without moving rows. The
// capacity is a limit, not a reservation: row storage grows with the rows
// actually added, so a one-row answer does not pay for a full batch.
type Batch struct {
	slots int
	cap   int
	n     int
	tups  [][]byte // slots × (rows allocated so far), all nil past row n
	sel   []int
}

// NewBatch returns an empty batch that holds up to capacity rows of slots
// slots each.
func NewBatch(slots, capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	return &Batch{slots: slots, cap: capacity}
}

// Reset empties the batch for refilling. The used region is cleared so a
// slot a previous producer left bound does not leak into the next fill
// (joins rely on nil slots meaning "not bound by this subtree").
func (b *Batch) Reset() {
	clear(b.tups[:b.n*b.slots])
	b.n = 0
	b.sel = b.sel[:0]
}

// Slots is the number of tuple slots per row.
func (b *Batch) Slots() int { return b.slots }

// Len is the number of selected rows.
func (b *Batch) Len() int { return len(b.sel) }

// Sel is the selection vector: indices of the selected rows, in order.
func (b *Batch) Sel() []int { return b.sel }

// Full reports whether the batch has no room for another row.
func (b *Batch) Full() bool { return b.n == b.cap }

// Room is the number of rows the batch can still take.
func (b *Batch) Room() int { return b.cap - b.n }

// Row returns the slot slice of row i.
func (b *Batch) Row(i int) [][]byte { return b.tups[i*b.slots : (i+1)*b.slots] }

// AddRow appends a selected row and returns its slot slice for the caller
// to fill. The batch must not be full. Row slices handed out earlier are
// stale once a later AddRow grew the storage: fill a row before adding the
// next.
func (b *Batch) AddRow() [][]byte {
	i := b.n
	if (i+1)*b.slots > len(b.tups) {
		b.grow()
	}
	b.n++
	b.sel = append(b.sel, i)
	return b.Row(i)
}

// grow doubles the row storage, from four rows up to the capacity.
func (b *Batch) grow() {
	rows := min(max(4, 2*b.n), b.cap)
	tups := make([][]byte, rows*b.slots)
	copy(tups, b.tups)
	b.tups = tups
}

// AddMerged appends a selected row combining an outer and an inner row:
// the outer slots are copied, then every slot the inner row binds
// overrides. Slot slices reference the same tuple bytes as the sources,
// which remain valid after the source batches are reset (access-method
// iterators hand out copies).
func (b *Batch) AddMerged(outer, inner [][]byte) {
	row := b.AddRow()
	copy(row, outer)
	for s, tup := range inner {
		if tup != nil {
			row[s] = tup
		}
	}
}

// Keep compacts the selection vector to the rows pred accepts, in order.
func (b *Batch) Keep(pred func(i int) (bool, error)) error {
	out := b.sel[:0]
	for _, i := range b.sel {
		ok, err := pred(i)
		if err != nil {
			b.sel = out
			return err
		}
		if ok {
			out = append(out, i)
		}
	}
	b.sel = out
	return nil
}

// BatchOperator is a cursor over batches of qualified rows. NextBatch
// resets b and fills it; returning ok means b holds at least one selected
// row (an operator whose upstream produced a batch that filtered to
// nothing keeps pulling internally). After NextBatch returns false it
// keeps returning false until the operator is re-Opened.
type BatchOperator interface {
	Open() error
	NextBatch(b *Batch) (bool, error)
	Close() error
}

// RunBatches drives a root batch operator to exhaustion using b as the
// exchange buffer: the pull loop of the executor. each, when non-nil,
// consumes every batch; a root whose own hooks consume its rows (emit a
// result row, accumulate an aggregate) passes nil.
func RunBatches(root BatchOperator, b *Batch, each func(b *Batch) error) error {
	if err := root.Open(); err != nil {
		return closeBatchOp(root, err)
	}
	for {
		ok, err := root.NextBatch(b)
		if err == nil && ok && each != nil {
			err = each(b)
		}
		if err != nil {
			return closeBatchOp(root, err)
		}
		if !ok {
			return root.Close()
		}
	}
}

// closeBatchOp closes op, keeping the earlier error if there was one.
func closeBatchOp(op BatchOperator, err error) error {
	cerr := op.Close()
	if err != nil {
		return err
	}
	return cerr
}

// BatchScan is the one-variable leaf cursor: it drains an access-method
// iterator (sequential scan, keyed probe, range probe, or temporary scan —
// Start decides) into the batch, offering each tuple to Bind and storing
// the qualifiers in the scan's own slot. One attribution bracket covers a
// whole fill. Open may be called again after Close; Start then produces a
// fresh iterator, which is how the inner side of a nested loop rescans.
//
// A full scan whose file splits into parts (Parts) and whose buffer gives
// out runs (Run) walks its file in morsels on up to runtime.GOMAXPROCS(0)
// goroutines instead of through Start's iterator (morsel.go); its rows,
// their batches and every count are the ones Start's walk makes.
type BatchScan struct {
	Node  *plan.Node
	Att   *Attribution
	Start func() (am.Iterator, error)
	// Ranges are tested on each tuple's bytes before Bind (am.Block): the
	// scan's owner may change their bounds in place before each Open.
	Ranges []am.Range
	// Bind, when set, qualifies one tuple within Ranges. It sees the tuple
	// in place, on the page, and only the tuples it accepts are copied; it
	// must not keep the slice.
	Bind func(rid page.RID, tup []byte) (bool, error)
	// End, if set, runs once when the scan exhausts (clearing the
	// variable's binding).
	End func()
	// Slot is the scan's variable's slot in the batch rows.
	Slot int
	// Arena, when set, backs the qualifying tuples; the owner resets it
	// once the rows built from them are dead. Nil gives the scan its own.
	Arena *am.Arena
	// Parts, when set, returns the parts of the file Start's iterator would
	// scan in full, or zero Units when it cannot be split; it readies
	// Ranges as Start does. Run returns a run on the file's buffer, or nil
	// when the scan must read through Start's iterator. Block returns the
	// block worker w fills, as BatchSubstJoin.Block does. The scan walks
	// in morsels only when all three are set.
	Parts func() am.Parts
	Run   func() *buffer.Run
	Block func(w int) am.Block

	it      am.Iterator
	blk     am.Block
	done    bool
	morsels morselWalk
	par     bool // this execution walks in morsels
}

// Open implements BatchOperator.
func (s *BatchScan) Open() error {
	prev := s.Att.Enter(s.Node)
	defer s.Att.Leave(prev)
	s.done = false
	if s.par = s.morsels.open(s); s.par {
		s.it = &s.morsels.replay
		return nil
	}
	it, err := s.Start()
	if err != nil {
		return err
	}
	s.it = it
	s.blk.Ranges, s.blk.Qual, s.blk.Arena = s.Ranges, s.Bind, s.Arena
	return nil
}

// NextBatch implements BatchOperator. Each underlying page is fetched once
// for all the tuples the batch has room for.
func (s *BatchScan) NextBatch(b *Batch) (bool, error) {
	if s.done {
		return false, nil
	}
	b.Reset()
	prev := s.Att.Enter(s.Node)
	defer s.Att.Leave(prev)
	if s.par {
		// The views this call replayed are charged before it returns,
		// where the serial walk would have made them.
		defer s.morsels.settle()
	}
	for !b.Full() {
		ok, err := s.it.NextBlock(&s.blk, b.Room())
		if err != nil {
			return false, err
		}
		if !ok {
			s.finish()
			break
		}
		for _, tup := range s.blk.Tups {
			b.AddRow()[s.Slot] = tup
		}
		s.Node.ActRows += int64(len(s.blk.Tups))
	}
	return b.Len() > 0, nil
}

// finish marks the scan exhausted.
func (s *BatchScan) finish() {
	s.done = true
	if s.End != nil {
		s.End()
	}
}

// Close implements BatchOperator.
func (s *BatchScan) Close() error {
	s.it = nil
	return nil
}

// BatchIndexScan resolves tuple ids through a secondary index and fetches
// versions in batch. Lookup reads the index (one or two levels); Fetch
// resolves one tuple id against the primary store and returns the tuple,
// so the scan can store it in its slot, with whether it qualifies.
type BatchIndexScan struct {
	Node   *plan.Node
	Att    *Attribution
	Lookup func() ([]secindex.TID, error)
	Fetch  func(tid secindex.TID) ([]byte, bool, error)
	End    func()
	Slot   int

	tids []secindex.TID
	i    int
	done bool
}

// Open implements BatchOperator.
func (x *BatchIndexScan) Open() error {
	prev := x.Att.Enter(x.Node)
	defer x.Att.Leave(prev)
	tids, err := x.Lookup()
	if err != nil {
		return err
	}
	x.tids, x.i, x.done = tids, 0, false
	return nil
}

// NextBatch implements BatchOperator.
func (x *BatchIndexScan) NextBatch(b *Batch) (bool, error) {
	if x.done {
		return false, nil
	}
	b.Reset()
	prev := x.Att.Enter(x.Node)
	defer x.Att.Leave(prev)
	for !b.Full() {
		if x.i >= len(x.tids) {
			x.done = true
			if x.End != nil {
				x.End()
			}
			break
		}
		tid := x.tids[x.i]
		x.i++
		tup, pass, err := x.Fetch(tid)
		if err != nil {
			return false, err
		}
		if pass {
			b.AddRow()[x.Slot] = tup
			x.Node.ActRows++
		}
	}
	return b.Len() > 0, nil
}

// Close implements BatchOperator.
func (x *BatchIndexScan) Close() error {
	x.tids, x.i = nil, 0
	return nil
}

// BatchOnce yields a single batch holding one empty row: the batch cursor
// of a retrieve with no tuple variables.
type BatchOnce struct {
	done bool
}

// Open implements BatchOperator.
func (o *BatchOnce) Open() error { o.done = false; return nil }

// NextBatch implements BatchOperator.
func (o *BatchOnce) NextBatch(b *Batch) (bool, error) {
	if o.done {
		return false, nil
	}
	o.done = true
	b.Reset()
	b.AddRow()
	return true, nil
}

// Close implements BatchOperator.
func (o *BatchOnce) Close() error { return nil }

// BatchFilter re-checks the residual predicates per batch, compacting the
// selection vector in place — rows are never copied. Rebind installs a
// row's bindings in the evaluation environment before Pred runs.
type BatchFilter struct {
	Node   *plan.Node
	Child  BatchOperator
	Rebind func(row [][]byte)
	Pred   func() (bool, error)
}

// Open implements BatchOperator.
func (f *BatchFilter) Open() error { return f.Child.Open() }

// NextBatch implements BatchOperator.
func (f *BatchFilter) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := f.Child.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		err = b.Keep(func(i int) (bool, error) {
			f.Rebind(b.Row(i))
			return f.Pred()
		})
		if err != nil {
			return false, err
		}
		if b.Len() > 0 {
			f.Node.ActRows += int64(b.Len())
			return true, nil
		}
	}
}

// Close implements BatchOperator.
func (f *BatchFilter) Close() error { return f.Child.Close() }

// BatchProject is the consuming root of a batch pipeline: it rebinds each
// selected row and runs Emit, which evaluates the target list (or
// accumulates an aggregate) from the environment.
type BatchProject struct {
	Node   *plan.Node
	Child  BatchOperator
	Rebind func(row [][]byte)
	Emit   func() error
}

// Open implements BatchOperator.
func (p *BatchProject) Open() error { return p.Child.Open() }

// NextBatch implements BatchOperator.
func (p *BatchProject) NextBatch(b *Batch) (bool, error) {
	ok, err := p.Child.NextBatch(b)
	if err != nil || !ok {
		return false, err
	}
	for _, i := range b.Sel() {
		p.Rebind(b.Row(i))
		if err := p.Emit(); err != nil {
			return false, err
		}
		p.Node.ActRows++
	}
	return true, nil
}

// Close implements BatchOperator.
func (p *BatchProject) Close() error { return p.Child.Close() }

// BatchNestedLoop scans the inner side once per outer row, merging each
// inner row into the output batch: the join with no key to substitute
// (BatchSubstJoin probes by one). The inner cursor is re-opened per outer
// row after Rebind installs that row's bindings. The loop's state — the
// current outer batch, outer row, and partially drained inner batch —
// survives across NextBatch calls, so a full output batch pauses and
// resumes exactly where it stopped.
type BatchNestedLoop struct {
	Node         *plan.Node
	Outer, Inner BatchOperator
	Rebind       func(row [][]byte)
	// OuterBuf and InnerBuf are the loop's private exchange batches; the
	// output batch merges rows from both.
	OuterBuf, InnerBuf *Batch

	obValid   bool // OuterBuf holds rows; oi indexes its selection
	oi        int
	innerOpen bool // Inner is open for the current outer row
	ibValid   bool // InnerBuf holds rows; ii indexes its selection
	ii        int
	done      bool
}

// Open implements BatchOperator.
func (n *BatchNestedLoop) Open() error {
	n.obValid, n.oi = false, 0
	n.innerOpen, n.ibValid, n.ii = false, false, 0
	n.done = false
	return n.Outer.Open()
}

// NextBatch implements BatchOperator.
func (n *BatchNestedLoop) NextBatch(b *Batch) (bool, error) {
	if n.done {
		return false, nil
	}
	b.Reset()
	for {
		if !n.obValid {
			ok, err := n.Outer.NextBatch(n.OuterBuf)
			if err != nil {
				return false, err
			}
			if !ok {
				n.done = true
				return b.Len() > 0, nil
			}
			n.obValid, n.oi = true, 0
		}
		for n.oi < n.OuterBuf.Len() {
			orow := n.OuterBuf.Row(n.OuterBuf.Sel()[n.oi])
			if !n.innerOpen {
				n.Rebind(orow)
				if err := n.Inner.Open(); err != nil {
					return false, err
				}
				n.innerOpen, n.ibValid, n.ii = true, false, 0
			}
			for {
				if !n.ibValid {
					ok, err := n.Inner.NextBatch(n.InnerBuf)
					if err != nil {
						return false, err
					}
					if !ok {
						if err := n.Inner.Close(); err != nil {
							return false, err
						}
						n.innerOpen = false
						n.oi++
						break
					}
					n.ibValid, n.ii = true, 0
				}
				for n.ii < n.InnerBuf.Len() {
					if b.Full() {
						return true, nil
					}
					b.AddMerged(orow, n.InnerBuf.Row(n.InnerBuf.Sel()[n.ii]))
					n.Node.ActRows++
					n.ii++
				}
				n.ibValid = false
			}
		}
		n.obValid = false
	}
}

// Close implements BatchOperator.
func (n *BatchNestedLoop) Close() error {
	var first error
	if n.innerOpen {
		first = n.Inner.Close()
		n.innerOpen = false
	}
	if err := n.Outer.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// BatchMaterialize detaches a one-variable subquery into a temporary: it
// drains Child (the variable's restricted scan), rebinding and writing
// each selected row into the temporary, then runs Finish to flush the
// temporary and rebind the variable to it. Write and Finish run under the
// materialization node's attribution bracket (one per batch), so temporary
// writes are charged to the detach step, not to the scan that fed it.
type BatchMaterialize struct {
	Node   *plan.Node
	Att    *Attribution
	Child  BatchOperator
	Buf    *Batch
	Rebind func(row [][]byte)
	Write  func() error
	Finish func() error
}

// Run drains the child and builds the temporary; BatchMaterialize is a
// prologue step, not a cursor, so it exposes Run instead of BatchOperator.
func (m *BatchMaterialize) Run() error {
	err := RunBatches(m.Child, m.Buf, func(b *Batch) error {
		prev := m.Att.Enter(m.Node)
		defer m.Att.Leave(prev)
		for _, i := range b.Sel() {
			m.Rebind(b.Row(i))
			if err := m.Write(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	prev := m.Att.Enter(m.Node)
	defer m.Att.Leave(prev)
	return m.Finish()
}
