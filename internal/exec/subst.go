package exec

import (
	"runtime"
	"sync/atomic"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/plan"
)

// BatchSubstJoin is Ingres's tuple substitution: for every outer row, a
// keyed probe of the inner relation on a key computed from that row, each
// inner row it yields merged with the outer row into the output batch.
//
// The probes of one outer batch are independent, so when the inner
// relation's buffer gives out runs (buffer.Buffered.Run) they go through a
// window (window.go) served by runtime.GOMAXPROCS(0)-1 helper goroutines,
// started at the first outer batch and stopped at Close, each probe
// reading its pages through its own run. The calling goroutine takes the
// probes in outer-row order: it settles each probe's run inside the inner
// node's attribution bracket and emits the probe's rows, while the helpers
// run the batch's later probes, and go on running them while the output
// batch is back with the consumer. A probe that is not done when its row
// is reached is waited for, the caller running unclaimed probes itself
// meanwhile. The views are charged at settle, in outer-row order, so every
// count, hit and per-operator figure is the one a single goroutine probing
// row by row through View makes. When the buffer gives out no runs, each
// probe runs at that point instead, on the calling goroutine, through
// Probe. The next outer batch is fetched, and its keys computed, only once
// every probe of the current one is settled and its rows emitted, where
// the single goroutine fetches it, so a failure charges what that
// goroutine charges.
//
// The probes through runs share their chain walks (am.Chains): each chain
// a probe of the execution reaches is walked once, by the first worker
// that needs it, onto its tape (am.Tape) in the join's table of chains,
// and every probe that reaches it, in this outer batch or a later one,
// replays the tape for its own key (am.Replay.Probe), noting on its own
// run the views its own walk makes. A probe whose chain another worker is
// still recording walks the chain alone. The tapes hold pages lent under
// the inner relation's latch, held for the whole join, so Close lets go
// of them and marks every tape unrecorded; the next execution records
// into their storage.
//
// A failed key ends the batch's probes before its row: the rows before it
// are probed and emitted, and the error is returned when its row is
// reached. A failed probe is settled when its row is reached, and its
// error returned after the rows it delivered; the probes after it are
// dropped, uncharged, whether or not a helper ran them.
type BatchSubstJoin struct {
	Node     *plan.Node // the join
	Inner    *plan.Node // the inner probe, which the probes' pages are charged to
	Att      *Attribution
	Outer    BatchOperator
	OuterBuf *Batch
	// Rebind installs an outer row's bindings before Key reads them.
	Rebind func(row [][]byte)
	// Slot is the inner variable's slot in the batch rows.
	Slot int
	// Cap is the inner batch capacity a probe is paced by: a walk is
	// asked for at most that many candidates before its accepted rows
	// are counted off, exactly as a leaf scan fills its batch.
	Cap int
	// Start, when set, runs once as the join opens, before any key.
	Start func()
	// Key computes the probe key of the outer row Rebind installed. It
	// reads the shared evaluation environment, so only the calling
	// goroutine runs it.
	Key func() (int64, error)
	// Run returns a run on the inner relation's buffer, or nil when the
	// probes must read through View on the calling goroutine. It is
	// called only once Parts has split the probe into chains.
	Run func() *buffer.Run
	// Probe starts the probe for key on the calling goroutine, reading
	// through the inner relation's buffer: the probe made without runs.
	Probe func(key int64) am.Iterator
	// Parts returns the inner relation's walks split into parts, whose
	// Chains split its probe into the key's part and its chains, which
	// the probes made through runs share; a probe that does not split (a
	// nil Locator) reads through View.
	Parts func() am.Parts
	// Block returns the block worker w probes into: the inner leaf's
	// ranges, read-only while the join runs, and worker w's own
	// qualification and arena, whose owner resets it once the rows built
	// from its tuples are dead. The calling goroutine calls it once per
	// worker, and worker w alone uses what it returns.
	Block func(w int) am.Block

	workers []am.Block    // one per worker; worker 0 is the calling goroutine
	runs    []*buffer.Run // runs[i] carries probe i of every outer batch
	probes  []substProbe  // the current outer batch's probes
	n       int           // probes[:n] are to be emitted
	keyErr  error         // the error of row n's key, if any
	pi, ti  int           // probes[pi] is emitting its row ti
	settled int           // probes[:settled] are settled
	obValid bool          // OuterBuf holds the batch the probes belong to
	done    bool
	win     window // the probes' window, running from the first batch with runs
	base    int    // the window item of probes[0]; a multiple of len(probes)

	// The shared walks of the execution's probes through runs.
	parts    am.Parts
	tapes    []am.Tape      // tapes[h]: chain h's tape, once ready[h] is taped
	ready    []atomic.Int32 // ready[h]: chain h's tape is untaped, taping or taped
	walks    []chainWorker  // worker w's
	recorded atomic.Int64   // tapes recorded this execution, shared
	alone    atomic.Int64   // chains walked alone this execution
}

// The states of a chain's tape.
const (
	untaped = iota
	taping
	taped
)

// chainWorker is worker w's side of the shared walks: its probe, which
// replays tapes through the probe's run, the run its recordings view
// through, which only lends, the walk it aims at each chain it records
// (a unit of a keyed file's parts is PrimaryRange's), and the tape of the
// chains it walks alone.
type chainWorker struct {
	replay am.Replay
	lend   *buffer.Run
	walk   am.PrimaryScan
	own    am.Tape
}

// substProbe is one outer row's probe: its key, the run it reads through
// (nil for a probe made at settle time), its accepted inner tuples and its
// error.
type substProbe struct {
	key  int64
	run  *buffer.Run
	tups [][]byte
	err  error
}

// Open implements BatchOperator.
func (j *BatchSubstJoin) Open() error {
	j.closeWalks()
	j.obValid, j.done = false, false
	j.recorded.Store(0)
	j.alone.Store(0)
	if j.Start != nil {
		j.Start()
	}
	return j.Outer.Open()
}

// NextBatch implements BatchOperator.
func (j *BatchSubstJoin) NextBatch(b *Batch) (bool, error) {
	if j.done {
		return false, nil
	}
	b.Reset()
	for {
		if !j.obValid {
			ok, err := j.Outer.NextBatch(j.OuterBuf)
			if err != nil {
				return false, err
			}
			if !ok {
				j.done = true
				return b.Len() > 0, nil
			}
			j.obValid = true
			j.probeBatch()
		}
		if full, err := j.emit(b); full || err != nil {
			return full, err
		}
		if j.keyErr != nil {
			return false, j.keyErr
		}
		j.obValid = false
	}
}

// emit settles the outer batch's probes in order and emits their rows
// into b, and reports whether b filled up first, or the error of a probe
// that failed. The settles charge the inner node; emitting rows reads no
// page.
func (j *BatchSubstJoin) emit(b *Batch) (bool, error) {
	prev := j.Att.Enter(j.Inner)
	defer j.Att.Leave(prev)
	for ; j.pi < j.n; j.pi, j.ti = j.pi+1, 0 {
		p := &j.probes[j.pi]
		if j.settled == j.pi {
			j.settle(p)
		}
		orow := j.OuterBuf.Row(j.OuterBuf.Sel()[j.pi])
		for ; j.ti < len(p.tups); j.ti++ {
			if b.Full() {
				return true, nil
			}
			row := b.AddRow()
			copy(row, orow)
			row[j.Slot] = p.tups[j.ti]
			j.Node.ActRows++
		}
		if p.err != nil {
			return false, p.err
		}
	}
	return false, nil
}

// probeBatch computes the keys of the outer batch's rows, in order, up to
// the first that fails, and, when the inner buffer gives out a run for
// each, publishes their probes to the window, starting the helpers, and
// the shared walks, at the execution's first such batch.
func (j *BatchSubstJoin) probeBatch() {
	sel := j.OuterBuf.Sel()
	if len(j.probes) < j.OuterBuf.Cap() {
		j.probes = make([]substProbe, j.OuterBuf.Cap())
	}
	j.n, j.keyErr, j.pi, j.ti, j.settled = len(sel), nil, 0, 0, 0
	for i, r := range sel {
		j.Rebind(j.OuterBuf.Row(r))
		key, err := j.Key()
		if err != nil {
			j.n, j.keyErr = i, err
			break
		}
		j.probes[i].key = key
	}
	if j.n == 0 {
		return
	}
	if !j.takeRuns() {
		j.block(0) // the probes run at settle time, on this goroutine
		return
	}
	if !j.win.running() {
		procs := len(j.walks)
		for w := range procs {
			j.block(w)
		}
		j.win.start(procs-1, len(j.probes), j.runProbe)
		j.base = 0
	} else {
		j.base += len(j.probes)
	}
	j.win.publish(j.base, j.base+j.n)
}

// runProbe runs window item i, a probe of the current outer batch, on
// worker w.
func (j *BatchSubstJoin) runProbe(w, i int) bool {
	return j.probe(w, &j.probes[i%len(j.probes)])
}

// takeRuns gives each of the batch's probes its run and reports whether
// the inner buffer gave out enough, and the shared walks are ready; if
// not, no probe has one.
func (j *BatchSubstJoin) takeRuns() bool {
	ok := j.Run != nil && j.readyWalks()
	for ok && len(j.runs) < j.n {
		r := j.Run()
		if r == nil {
			break
		}
		j.runs = append(j.runs, r)
	}
	ok = ok && len(j.runs) >= j.n
	for i := range j.n {
		j.probes[i].run = nil
		if ok {
			j.probes[i].run = j.runs[i]
		}
	}
	return ok
}

// readyWalks readies the execution's shared walks, the first time it is
// called in an execution, and reports whether they are ready: the probe
// splits into chains, each worker has a run for its recordings, and each
// chain an empty tape.
func (j *BatchSubstJoin) readyWalks() bool {
	if len(j.walks) > 0 {
		return true
	}
	if j.parts = j.Parts(); j.parts.Chains.Locator == nil {
		return false
	}
	walks := make([]chainWorker, runtime.GOMAXPROCS(0))
	for w := range walks {
		if walks[w].lend = j.Run(); walks[w].lend == nil {
			return false
		}
	}
	j.walks = walks
	if len(j.tapes) != j.parts.Units {
		j.tapes, j.ready = make([]am.Tape, j.parts.Units), make([]atomic.Int32, j.parts.Units)
	}
	for w := range walks {
		walks[w].replay.Tape = func(h int) *am.Tape { return j.tape(w, h) }
	}
	return true
}

// tape returns, for worker w, the tape of chain h. The first worker to
// need a chain records its tape for every later probe that reaches it; a
// worker that finds the tape still being recorded, or a chain outside the
// table, walks the chain alone, onto its own tape.
func (j *BatchSubstJoin) tape(w, h int) *am.Tape {
	cw := &j.walks[w]
	cw.walk.Aim(cw.lend, h, h+1)
	if h < len(j.tapes) {
		t, ready := &j.tapes[h], &j.ready[h]
		if ready.Load() == untaped && ready.CompareAndSwap(untaped, taping) {
			t.Record(&cw.walk, j.parts.Chains.Key, nil)
			ready.Store(taped)
			j.recorded.Add(1)
			return t
		}
		if ready.Load() == taped {
			return t
		}
	}
	cw.own.Record(&cw.walk, j.parts.Chains.Key, nil)
	j.alone.Add(1)
	return &cw.own
}

// Walks reports the chain walks the last execution made: the tapes it
// recorded and shared, and the chains a probe walked alone because
// another goroutine was recording them.
func (j *BatchSubstJoin) Walks() (recorded, alone int64) {
	return j.recorded.Load(), j.alone.Load()
}

// block makes worker w's block on first use.
func (j *BatchSubstJoin) block(w int) {
	for len(j.workers) <= w {
		j.workers = append(j.workers, j.Block(len(j.workers)))
	}
}

// probe runs p on worker w and reports whether it succeeded: with a run,
// by replaying the tapes of the chains it reaches, else through Probe.
// The walk is paced as a leaf scan filling batches of Cap rows paces it,
// so it views the same pages the same number of times. A failed probe
// keeps the rows of the batches it filled before the error, which such a
// scan would have delivered.
func (j *BatchSubstJoin) probe(w int, p *substProbe) bool {
	p.tups, p.err = p.tups[:0], nil
	var it am.Iterator
	if p.run != nil {
		rp := &j.walks[w].replay
		rp.V = p.run
		rp.Probe(&j.parts.Chains, p.key)
		it = rp
	} else {
		it = j.Probe(p.key)
	}
	blk := &j.workers[w]
	room, filled := j.Cap, 0
	for {
		ok, err := it.NextBlock(blk, room)
		if err != nil {
			p.tups, p.err = p.tups[:filled], err
			return false
		}
		if !ok {
			return true
		}
		p.tups = append(p.tups, blk.Tups...)
		if room -= len(blk.Tups); room <= 0 {
			room, filled = j.Cap, len(p.tups)
		}
	}
}

// settle charges probe p's pages, inside emit's bracket of the inner
// node: its run's views, or, without a run, the probe itself, made now.
func (j *BatchSubstJoin) settle(p *substProbe) {
	if p.run != nil {
		j.win.await(j.base + j.settled)
		p.run.Settle()
	} else {
		j.probe(0, p)
	}
	j.Inner.ActRows += int64(len(p.tups))
	j.settled++
}

// Close implements BatchOperator.
func (j *BatchSubstJoin) Close() error {
	j.closeWalks()
	return j.Outer.Close()
}

// closeWalks stops the helpers and drops what the execution's probes
// held: the runs, which belong to its handle, and the tapes' pages, which
// were lent under its latch.
func (j *BatchSubstJoin) closeWalks() {
	j.win.close()
	clear(j.runs)
	j.runs = j.runs[:0]
	for i := range j.ready {
		j.ready[i].Store(untaped)
		j.tapes[i].Release()
	}
	j.walks = nil
}
