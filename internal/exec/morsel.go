package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
)

// A full scan on several cores is morsel-driven (Leis et al., SIGMOD
// 2014) under the one-frame accounting. The scan's file is cut into
// morsels of morselUnits units (am.Parts); workers walk whole morsels
// through runs that only lend pages, each recording what it saw on an
// am.Tape, and the calling goroutine plays the tapes back in the file's
// order through an am.Replay. The replay delivers the blocks the serial
// walk would have delivered for the same batch room, and notes each view
// the serial walk would have made, re-views included, on the caller's own
// run, which NextBatch settles before it returns. So every count, hit and
// per-operator figure is charged where and when the serial walk charges
// it, and the frame is left on the page the serial walk leaves it on.

const (
	// morselUnits is the units one morsel walks: primary pages with their
	// chains, or heap pages.
	morselUnits = 16
	// roundMorsels is the morsels per worker recorded before the caller
	// replays them: what a scan holds at once beyond its rows.
	roundMorsels = 8
)

// morselWalk is one scan's walk in morsels.
type morselWalk struct {
	parts   am.Parts
	runs    []*buffer.Run // runs[0] is charged the replay; runs[1+w] lends to worker w
	blocks  []am.Block    // worker w's block; kept across executions
	tapes   []am.Tape     // the round's tapes, one per morsel
	workers int
	morsels int // morsels in the file
	next    int // morsels below next have been recorded
	ti, nt  int // tapes[ti:nt] are recorded and not yet replayed
	replay  am.Replay
}

// open starts s's execution in morsels and reports whether it did: the
// file splits into two morsels or more, the process has two cores or
// more, and the buffer gives out runs.
func (m *morselWalk) open(s *BatchScan) bool {
	if s.Parts == nil || s.Run == nil || s.Block == nil {
		return false
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return false
	}
	m.parts = s.Parts()
	m.morsels = (m.parts.Units + morselUnits - 1) / morselUnits
	if m.morsels < 2 {
		return false
	}
	m.workers = min(procs, m.morsels)
	// A run belongs to the handle of the execution that took it.
	clear(m.runs)
	m.runs = m.runs[:0]
	for range m.workers + 1 {
		r := s.Run()
		if r == nil {
			return false
		}
		m.runs = append(m.runs, r)
	}
	for len(m.blocks) < m.workers {
		m.blocks = append(m.blocks, s.Block(len(m.blocks)))
	}
	m.next, m.ti, m.nt = 0, 0, 0
	m.replay = am.Replay{V: m.runs[0], Next: m.tape, Left: m.runs[0].NumPages()}
	return true
}

// settle charges the views replayed since the last settle.
func (m *morselWalk) settle() { m.runs[0].Settle() }

// tape returns the next morsel's tape, recording the next round first when
// every recorded tape has been replayed; nil after the last morsel, or
// after a morsel whose walk failed.
func (m *morselWalk) tape() *am.Tape {
	if m.ti == m.nt {
		if m.next == m.morsels {
			return nil
		}
		m.record()
	}
	m.ti++
	return &m.tapes[m.ti-1]
}

// record walks the next round of morsels on the workers, the calling
// goroutine among them, and returns once every walk has ended. Morsels are
// taken in order, so once a walk fails every morsel before it has been
// taken; none after it is walked, and the round ends at it.
func (m *morselWalk) record() {
	n := min(m.workers*roundMorsels, m.morsels-m.next)
	if len(m.tapes) < n {
		m.tapes = append(m.tapes, make([]am.Tape, n-len(m.tapes))...)
	}
	base := m.next
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w int) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			lo := (base + i) * morselUnits
			pw := m.parts.Walk(m.runs[1+w], lo, min(lo+morselUnits, m.parts.Units))
			if !m.tapes[i].Record(pw, &m.blocks[w]) {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < m.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	m.next, m.ti, m.nt = base+n, 0, n
	if failed.Load() {
		for i := range n {
			if m.tapes[i].Failed() {
				m.next, m.nt = m.morsels, i+1
				break
			}
		}
	}
}
