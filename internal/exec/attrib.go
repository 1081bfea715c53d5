package exec

import (
	"tdbms/internal/buffer"
	"tdbms/internal/plan"
)

// Attribution charges page accesses to plan nodes. The buffer layer keeps
// global counters; operators bracket their own work with Enter/Leave, and
// whatever the counters moved in between is attributed to the entered
// node. Because operators nest (a join's Next runs inside its parent's
// Next), Enter returns the previous owner and Leave restores it — the
// innermost operator on the stack owns the I/O, which is exactly the
// operator whose code touched the pages. A nil *Attribution charges
// nothing: the operators of a run nobody measures (a DML victim scan)
// bracket themselves at no cost.
type Attribution struct {
	read   func() buffer.Stats
	cur    *plan.Node
	last   buffer.Stats
	orphan plan.IOStats
}

// NewAttribution starts a tracker over a stats source (typically the sum
// of every buffer the query can touch, temporaries included). The
// baseline is read immediately: I/O before the first Enter is orphaned,
// not misattributed.
func NewAttribution(read func() buffer.Stats) *Attribution {
	return &Attribution{read: read, last: read()}
}

// Restart begins a new run over the same stats source: the baseline is
// read again and nothing is owned or orphaned.
func (a *Attribution) Restart() {
	a.cur, a.orphan, a.last = nil, plan.IOStats{}, a.read()
}

// Enter flushes pending deltas to the current owner and makes n the
// owner. It returns the previous owner for Leave.
func (a *Attribution) Enter(n *plan.Node) *plan.Node {
	if a == nil {
		return nil
	}
	a.flush()
	prev := a.cur
	a.cur = n
	return prev
}

// Leave flushes pending deltas to the current owner and restores prev.
func (a *Attribution) Leave(prev *plan.Node) {
	if a == nil {
		return
	}
	a.flush()
	a.cur = prev
}

func (a *Attribution) flush() {
	now := a.read()
	d := now.Sub(a.last)
	a.last = now
	if d == (buffer.Stats{}) {
		return
	}
	io := plan.IOStats{Reads: d.Reads, Writes: d.Writes, Hits: d.Hits}
	if a.cur == nil {
		a.orphan = a.orphan.Add(io)
		return
	}
	a.cur.IO = a.cur.IO.Add(io)
}

// Finish flushes one last time and assigns any I/O that happened outside
// every operator bracket to fallback, so the tree's total equals the
// counters' total.
func (a *Attribution) Finish(fallback *plan.Node) {
	a.flush()
	if fallback != nil {
		fallback.IO = fallback.IO.Add(a.orphan)
		a.orphan = plan.IOStats{}
	}
}
