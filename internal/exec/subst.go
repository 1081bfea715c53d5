package exec

import (
	"runtime"
	"sync"
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
// relation's buffer gives out runs (buffer.Buffered.Run) they run on up to
// runtime.GOMAXPROCS(0) goroutines, each probe reading its pages through
// its own run. The calling goroutine then takes the probes in outer-row
// order: it settles each probe's run inside the inner node's attribution
// bracket and emits the probe's rows. The views are charged at that
// point, in that order, so every count, hit and per-operator figure is
// the one a single goroutine probing row by row through View makes. When
// the buffer gives out no runs, each probe runs at that point instead, on
// the calling goroutine, through View. Every run of an outer batch is
// settled before the next outer batch is fetched, and no goroutine outlives
// NextBatch.
//
// A failed key ends the batch's probes before its row: the rows before it
// are probed and emitted, and the error is returned when its row is
// reached. A failed probe is settled when its row is reached, and its
// error returned after the rows it delivered; the probes after it are
// dropped as if they never ran.
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
	// probes must read through View on the calling goroutine.
	Run func() *buffer.Run
	// Prober returns a worker's probe, made once per execution: it starts
	// the probe for key, reading pages through r, or through the inner
	// relation's buffer when r is nil, and the iterator it returns is valid
	// until its next call. The calling goroutine calls Prober once per
	// worker, and that worker alone uses what it returns.
	Prober func() func(key int64, r *buffer.Run) am.Iterator
	// Block returns the block worker w probes into: the inner leaf's
	// ranges, read-only while the join runs, and worker w's own
	// qualification and arena, whose owner resets it once the rows built
	// from its tuples are dead. The calling goroutine calls it once per
	// worker, and worker w alone uses what it returns.
	Block func(w int) am.Block

	workers []am.Block                             // one per worker; worker 0 is the calling goroutine
	aims    []func(int64, *buffer.Run) am.Iterator // worker w's probe, this execution
	runs    []*buffer.Run                          // runs[i] carries probe i of every outer batch
	probes  []substProbe                           // the current outer batch's probes
	n       int                                    // probes[:n] are to be emitted
	keyErr  error                                  // the error of row n's key, if any
	pi, ti  int                                    // probes[pi] is emitting its row ti
	settled int                                    // probes[:settled] are settled
	obValid bool                                   // OuterBuf holds the batch the probes belong to
	done    bool
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
	j.obValid, j.done = false, false
	// A run, and a probe, belong to the handle of the execution that
	// made it.
	clear(j.runs)
	j.runs = j.runs[:0]
	clear(j.aims)
	j.aims = j.aims[:0]
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
		if j.keyErr != nil {
			return false, j.keyErr
		}
		j.obValid = false
	}
}

// probeBatch computes the keys of the outer batch's rows, in order, up to
// the first that fails, and, when the inner buffer gives out a run for
// each, runs their probes in parallel.
func (j *BatchSubstJoin) probeBatch() {
	sel := j.OuterBuf.Sel()
	if len(j.probes) < len(sel) {
		j.probes = append(j.probes, make([]substProbe, len(sel)-len(j.probes))...)
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
		j.worker(0) // the probes run at settle time, on this goroutine
		return
	}
	workers := min(runtime.GOMAXPROCS(0), j.n)
	for w := range workers {
		j.worker(w)
	}
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w int) {
		// Indices are taken in order, so once a probe fails every probe
		// before it is taken; none after it needs to run.
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= j.n {
				return
			}
			if p := &j.probes[i]; !j.probe(w, p) {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// takeRuns gives each of the batch's probes its run and reports whether
// the inner buffer gave out enough; if not, no probe has one.
func (j *BatchSubstJoin) takeRuns() bool {
	for len(j.runs) < j.n && j.Run != nil {
		r := j.Run()
		if r == nil {
			break
		}
		j.runs = append(j.runs, r)
	}
	ok := len(j.runs) >= j.n
	for i := range j.n {
		j.probes[i].run = nil
		if ok {
			j.probes[i].run = j.runs[i]
		}
	}
	return ok
}

// worker makes worker w's block on first use, and its probe on first use
// in this execution.
func (j *BatchSubstJoin) worker(w int) {
	for len(j.workers) <= w {
		j.workers = append(j.workers, j.Block(len(j.workers)))
	}
	for len(j.aims) <= w {
		j.aims = append(j.aims, j.Prober())
	}
}

// probe runs p on worker w and reports whether it succeeded. The walk is
// paced as a leaf scan filling batches of Cap rows paces it, so it views
// the same pages the same number of times. A failed probe keeps the rows
// of the batches it filled before the error, which such a scan would have
// delivered.
func (j *BatchSubstJoin) probe(w int, p *substProbe) bool {
	p.tups, p.err = p.tups[:0], nil
	blk, it := &j.workers[w], j.aims[w](p.key, p.run)
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

// settle charges probe p's pages to the inner node: its run's views, or,
// without a run, the probe itself, made now.
func (j *BatchSubstJoin) settle(p *substProbe) {
	prev := j.Att.Enter(j.Inner)
	if p.run != nil {
		p.run.Settle()
	} else {
		j.probe(0, p)
	}
	j.Att.Leave(prev)
	j.Inner.ActRows += int64(len(p.tups))
	j.settled++
}

// Close implements BatchOperator.
func (j *BatchSubstJoin) Close() error { return j.Outer.Close() }
