package exec

import (
	"runtime"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
)

// A full scan on several cores is morsel-driven (Leis et al., SIGMOD
// 2014) under the one-frame accounting. The scan's file is cut into
// morsels of morselUnits units (am.Parts); workers walk whole morsels
// through runs that only lend pages, each recording what it saw on an
// am.Tape, and the calling goroutine plays the tapes back in the file's
// order through am.Replay.Scan. The replay delivers the blocks the serial
// walk would have delivered for the same batch room, and notes each view
// the serial walk would have made, re-views included, on the caller's own
// run, which NextBatch settles before it returns. So every count, hit and
// per-operator figure is charged where and when the serial walk charges
// it, and the frame is left on the page the serial walk leaves it on.
//
// The morsels go through a window (window.go) of two rounds: the scan's
// helpers start at Open and walk the next round while the caller replays
// this one or is back in its consumer, and stop at Close. A caller whose
// next tape is not recorded yet walks an unclaimed morsel itself. A
// morsel walked ahead is charged only when the replay reaches it, so one
// past a failure, or past the statement's end, is dropped uncharged.

const (
	// morselUnits is the units one morsel walks: primary pages with their
	// chains, or heap pages.
	morselUnits = 16
	// roundMorsels is the morsels per worker in a round; a scan holds the
	// tapes of two rounds at once beyond its rows.
	roundMorsels = 8
)

// morselWalk is one scan's walk in morsels.
type morselWalk struct {
	parts   am.Parts
	runs    []*buffer.Run // runs[0] is charged the replay; runs[1+w] lends to worker w
	blocks  []am.Block    // worker w's block; kept across executions
	tapes   []am.Tape     // two rounds of tapes: morsel i's is tapes[i%len(tapes)]
	round   int           // morsels in a round
	morsels int           // morsels in the file
	win     window
	replay  am.Replay
}

// open starts s's execution in morsels and reports whether it did: the
// file splits into two morsels or more, the process has two cores or
// more, and the buffer gives out runs. The helpers start walking the
// first two rounds before open returns.
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
	workers := min(procs, m.morsels)
	// A run belongs to the handle of the execution that took it.
	clear(m.runs)
	m.runs = m.runs[:0]
	for range workers + 1 {
		r := s.Run()
		if r == nil {
			return false
		}
		m.runs = append(m.runs, r)
	}
	for len(m.blocks) < workers {
		m.blocks = append(m.blocks, s.Block(len(m.blocks)))
	}
	m.round = workers * roundMorsels
	ring := min(2*m.round, m.morsels)
	if len(m.tapes) < ring {
		m.tapes = append(m.tapes, make([]am.Tape, ring-len(m.tapes))...)
	}
	m.replay = am.Replay{V: m.runs[0], Tape: m.tape}
	m.replay.Scan(0, m.morsels)
	m.win.start(workers-1, ring, m.record)
	m.win.publish(0, ring)
	return true
}

// settle charges the views replayed since the last settle.
func (m *morselWalk) settle() { m.runs[0].Settle() }

// tape returns morsel i's tape once it is recorded; the replay asks for
// the morsels in order, and for none past one whose walk failed. Starting
// a round publishes the round after it, whose tapes are the ones the round
// before held.
func (m *morselWalk) tape(i int) *am.Tape {
	if i > 0 && i%m.round == 0 {
		m.win.publish(i, min(i+2*m.round, m.morsels))
	}
	m.win.await(i)
	return &m.tapes[i%len(m.tapes)]
}

// record walks morsel i on worker w onto its tape and reports whether the
// walk ended without an error.
func (m *morselWalk) record(w, i int) bool {
	lo := i * morselUnits
	pw := m.parts.Walk(m.runs[1+w], lo, min(lo+morselUnits, m.parts.Units))
	return m.tapes[i%len(m.tapes)].Record(pw, am.Key{}, &m.blocks[w])
}
