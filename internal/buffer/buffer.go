// Package buffer implements the buffer-management policy under which the
// paper's measurements were taken: exactly one buffer frame per user
// relation, "so that a page resides in main memory only until another page
// from the same relation is brought in" (Section 5.1).
//
// Every page fetch that misses the frames counts as one disk read; every
// dirty eviction counts as one disk write. These counters are the benchmark
// metric for Figures 5 through 10.
//
// The policy is fixed when a pool is opened (NewPooled): a pool may keep
// several LRU frames, and sequential walks may prefetch a batch of pages
// per miss (ViewAhead, capped at the pool's readahead), so the
// buffer-sensitivity ablation can quantify what the paper's single-frame
// policy filtered out. New opens the measurement policy, one frame and no
// readahead — the benchmark and every measured figure run under it.
//
// Concurrency model: the frames and the global counters live in a shared
// pool guarded by a mutex, while a Buffered value is a cheap per-caller
// handle onto that pool. Handles derived with WithAccount additionally
// charge every fetch, hit, and flush to a session's account, a plain Stats
// the session owns, so one statement's I/O delta can be read without a
// global counter snapshot. The account has no lock of its own: every
// handle charging it is used by the session's goroutine (see WithAccount).
//
// A frame records which page it holds and where that page's image is; it
// never needs an image of its own to count a hit or a miss. There are two
// ways to fetch:
//
//   - View is the read-only fetch. It copies nothing. When the store keeps
//     its pages resident at stable addresses (storage.Mem) the frame holds
//     the store's own page, lent, and View returns that pointer. When the
//     store cannot lend (a disk file, or any wrapper that must see every
//     ReadPage) the page is read once into a pool-owned image that the
//     frame and every handle viewing it share by reference count; the image
//     is recycled when the last of them lets go. Which of the two happens
//     is decided by what the store can do, never by the caller.
//   - Fetch is the writer's fetch: it copies the page into the handle's
//     private scratch, which the caller may modify and announce with
//     MarkDirty. The modified scratch is copied into an image the frame
//     owns alone, so a view is never written under its reader.
//
// A view stays valid until the handle's next buffer call. A lent page is
// the store's memory, which a flush of that page overwrites in place, so
// the caller must hold the relation's latch for as long as it reads one:
// a page turns dirty only under the exclusive latch, a dirty page is served
// from its frame's private image and never lent, and it is flushed before
// that image is dropped. Hence no flush writes a page someone holds on loan.
//
// A writing statement is all or nothing at this layer: an armed pool keeps
// the image of each page it dirties until End keeps or reverts its work.
package buffer

import (
	"fmt"
	"slices"
	"sync"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// Stats holds the I/O counters for one relation.
type Stats struct {
	Reads  int64 // page fetches that missed the frames
	Writes int64 // dirty-frame evictions/flushes
	Hits   int64 // page fetches satisfied by a frame
	// ReadOps counts read operations issued to the backing file. A plain
	// Fetch miss is one operation for one page, so under the single-frame
	// measurement policy ReadOps always equals Reads; a ViewAhead batch
	// reads several pages in one operation, so pooled scans show
	// ReadOps < Reads.
	ReadOps int64
}

// Add returns the component-wise sum of two Stats.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:   s.Reads + t.Reads,
		Writes:  s.Writes + t.Writes,
		Hits:    s.Hits + t.Hits,
		ReadOps: s.ReadOps + t.ReadOps,
	}
}

// Sub returns the component-wise difference s - t.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:   s.Reads - t.Reads,
		Writes:  s.Writes - t.Writes,
		Hits:    s.Hits - t.Hits,
		ReadOps: s.ReadOps - t.ReadOps,
	}
}

// lender is implemented by stores that keep every page resident at an
// address that does not change while the file grows (storage.Mem): Lend
// returns the page itself. Wrappers do not forward it, so a wrapped store
// is read with ReadPage like any other. Both methods take no lock, so a
// view may prefetch through them after the pool mutex is released.
type lender interface {
	Lend(id page.ID) (*page.Page, error)
	NumPages() int
}

// image is a page image owned by the pool. refs counts the frame holding
// it plus the handles viewing it; it is written only while refs is 1, and
// returns to the pool's free list when refs reaches 0. Guarded by pool.mu.
type image struct {
	pg   page.Page
	refs int
}

// frame is one buffer slot.
type frame struct {
	id page.ID
	// pg is the resident image of page id: &img.pg when the pool owns it,
	// else a page on loan from the store (clean by construction).
	pg    *page.Page
	img   *image
	dirty bool
	used  int64 // last-use tick for LRU
}

// view is one handle's private scratch page: the stable copy of the page
// most recently fetched for writing or allocated through that handle.
type view struct {
	pg    page.Page
	id    page.ID
	dirty bool // the scratch was modified and must be synced to its frame
}

// pool is the shared state of one buffered file: frames, counters, and the
// pending scratch whose content is authoritative until the next operation.
type pool struct {
	name string
	file storage.File
	lend lender // file, when it can lend its pages; else nil
	// readahead is the most pages ViewAhead reads past a missed one in a
	// single batch; zero on a single-frame pool.
	readahead int

	mu     sync.Mutex
	frames []frame
	free   []*image // images no frame or handle references
	tick   int64
	stats  Stats
	// pending is the scratch most recently handed out by Fetch or Allocate
	// on any handle. Callers may mutate it until their next buffer call, so
	// every pool operation first syncs a dirty pending back into its frame.
	pending *view

	// The statement revert (Arm): base is the file's size at Arm, shadows
	// hold the images pages below it had before the statement dirtied
	// them, and seen[id] is gen, the statement's number, once page id is
	// among them, so arming clears nothing.
	armed   bool
	base    int
	gen     uint64
	seen    []uint64
	shadows []shadow
}

// shadow is a page's image from before the armed statement dirtied it.
type shadow struct {
	id  page.ID
	img *image
}

// Buffered is a handle onto a shared frame pool. The zero-account handle
// returned by New charges only the pool's global counters; handles derived
// with WithAccount also charge their session. It is the only path by which
// access methods touch pages. A handle is not safe for concurrent use; the
// pool behind it is.
type Buffered struct {
	p    *pool
	acct *Stats
	v    *view  // scratch of Fetch and Allocate, made on first use
	held *image // image the handle's current view references, if pool-owned
}

// New wraps f in a single-frame buffer — the paper's measurement policy.
func New(name string, f storage.File) *Buffered { return NewPooled(name, f, 1, 0) }

// NewPooled wraps f in a frames-frame LRU buffer whose sequential walks
// read up to readahead pages past a missed one in a single batch. Frames
// below 1 is one frame — the Section 5.1 measurement policy — and
// readahead is clamped to [0, frames-1], so a batch never evicts its own
// pages. The frame count is fixed for the life of the pool.
func NewPooled(name string, f storage.File, frames, readahead int) *Buffered {
	frames = max(frames, 1)
	p := &pool{name: name, file: f, frames: make([]frame, frames),
		readahead: min(max(readahead, 0), frames-1)}
	p.lend, _ = f.(lender)
	for i := range p.frames {
		p.frames[i].id = page.Nil
	}
	return &Buffered{p: p}
}

// WithAccount returns a new handle on the same pool that charges its I/O to
// the account a (in addition to the pool's global counters); nil charges
// only the pool. Sessions derive every statement's handles this way. The
// account is charged under the mutex of whichever pool the I/O hit, so
// every handle charging one account must be used by one goroutine at a
// time, and the account read by that goroutine or after it.
func (b *Buffered) WithAccount(a *Stats) *Buffered {
	return &Buffered{p: b.p, acct: a}
}

// Name returns the relation/file name this buffer serves.
func (b *Buffered) Name() string { return b.p.name }

// Frames reports the configured frame count.
func (b *Buffered) Frames() int { return len(b.p.frames) }

// lookup finds the frame holding id, or nil. Caller holds p.mu.
func (p *pool) lookup(id page.ID) *frame {
	for i := range p.frames {
		if p.frames[i].id == id {
			return &p.frames[i]
		}
	}
	return nil
}

// victim picks the least-recently-used frame. Caller holds p.mu.
func (p *pool) victim() *frame {
	v := &p.frames[0]
	for i := 1; i < len(p.frames); i++ {
		if p.frames[i].used < v.used {
			v = &p.frames[i]
		}
	}
	return v
}

// newImage takes an image off the free list, or makes one, for a single
// owner. Its content is whatever it last held. Caller holds p.mu.
func (p *pool) newImage() *image {
	if n := len(p.free); n > 0 {
		img := p.free[n-1]
		p.free = p.free[:n-1]
		img.refs = 1
		return img
	}
	return &image{refs: 1}
}

// release drops one reference to img (nil is allowed), recycling the image
// with the last. Caller holds p.mu.
func (p *pool) release(img *image) {
	if img == nil {
		return
	}
	if img.refs--; img.refs == 0 {
		p.free = append(p.free, img)
	}
}

// own gives f an image no viewer shares, so it can be written. The image's
// content is unspecified. Caller holds p.mu.
func (p *pool) own(f *frame) {
	if f.img != nil && f.img.refs == 1 {
		return
	}
	p.release(f.img)
	f.img = p.newImage()
	f.pg = &f.img.pg
}

// empty makes f hold no page. Caller holds p.mu and has flushed f.
func (p *pool) empty(f *frame) {
	p.release(f.img)
	f.img, f.pg = nil, nil
	f.id = page.Nil
	f.dirty = false
}

// sync writes a dirty pending scratch back into its frame. Between the
// operation that set pending and this sync no other pool operation has run,
// so the frame still holds pending.id. Caller holds p.mu.
func (p *pool) sync() {
	if p.pending == nil || !p.pending.dirty {
		return
	}
	if f := p.lookup(p.pending.id); f != nil {
		p.own(f)
		f.img.pg = p.pending.pg
		f.dirty = true
	}
	p.pending.dirty = false
}

// charge bumps the pool counters and mirrors the delta to the handle's
// account. Caller holds p.mu.
func (b *Buffered) charge(d Stats) {
	b.p.stats = b.p.stats.Add(d)
	if b.acct != nil {
		*b.acct = b.acct.Add(d)
	}
}

// flushFrame writes a dirty frame back, charging the write to b. Caller
// holds p.mu. On a write error the frame STAYS dirty, so the page is
// retried by the next Flush/Close — with one-shot faults (and most real
// transient errors) the retry repairs any partially-written page image.
func (b *Buffered) flushFrame(f *frame) error {
	if f.dirty && f.id != page.Nil {
		if err := b.p.file.WritePage(f.id, f.pg); err != nil {
			return fmt.Errorf("buffer %q: flush page %d: %w", b.p.name, f.id, err)
		}
		b.charge(Stats{Writes: 1})
	}
	f.dirty = false
	return nil
}

// begin opens a pool operation on this handle: the pending scratch is
// synced, the handle's previous view is retired, and the LRU clock ticks.
// Caller holds p.mu.
func (b *Buffered) begin() {
	p := b.p
	p.sync()
	p.release(b.held)
	b.held = nil
	p.tick++
}

// load makes the flushed frame f hold page id: on loan when the store
// lends, else read into an image of the pool's. Caller holds p.mu.
func (p *pool) load(f *frame, id page.ID) error {
	p.empty(f)
	if p.lend != nil {
		pg, err := p.lend.Lend(id)
		if err != nil {
			return err
		}
		f.pg = pg
	} else {
		img := p.newImage()
		if err := p.file.ReadPage(id, &img.pg); err != nil {
			p.release(img)
			return err
		}
		f.img, f.pg = img, &img.pg
	}
	f.id = id
	return nil
}

// resident returns the frame holding page id, bringing the page in
// (evicting and, if dirty, flushing the LRU occupant) on a miss. Caller
// holds p.mu and has called begin.
func (b *Buffered) resident(id page.ID) (*frame, error) {
	p := b.p
	if f := p.lookup(id); f != nil {
		b.charge(Stats{Hits: 1})
		f.used = p.tick
		return f, nil
	}
	f := p.victim()
	if err := b.flushFrame(f); err != nil {
		return nil, err
	}
	if err := p.load(f, id); err != nil {
		p.pending = nil
		return nil, fmt.Errorf("buffer %q: read page %d: %w", p.name, id, err)
	}
	f.used = p.tick
	b.charge(Stats{Reads: 1, ReadOps: 1})
	return f, nil
}

// hold hands out f's image as the handle's view. No scratch is out from
// this operation, so nothing is pending. Caller holds p.mu.
func (b *Buffered) hold(f *frame) *page.Page {
	if f.img != nil {
		f.img.refs++
		b.held = f.img
	}
	b.p.pending = nil
	return f.pg
}

// View brings page id into a frame exactly as Fetch does — the same hit,
// the same read, the same eviction — and returns the resident image itself,
// which the caller must not modify. The pointer is valid until the next
// call on this handle; see the package comment for what else the caller
// must hold while reading through it.
//
// A page on loan from the store is prefetched, and so is its overflow
// successor when the store can lend that too: the caller is about to read
// the one and will likely view the other next. Prefetching moves no
// counter and takes no lock; see prefetch.
func (b *Buffered) View(id page.ID) (*page.Page, error) {
	pg, lent, err := b.view(id)
	if lent {
		b.p.prefetch(pg)
	}
	return pg, err
}

// view is View under the pool mutex. It reports whether the page it
// returns is on loan from the store.
func (b *Buffered) view(id page.ID) (*page.Page, bool, error) {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	b.begin()
	f, err := b.resident(id)
	if err != nil {
		return nil, false, err
	}
	return b.hold(f), f.img == nil, nil
}

// prefetch starts loading the lent page pg and, when its overflow link
// names a page the store can lend, that page too. The successor is not
// brought into a frame and nothing is counted: only the processor's caches
// see it. Reading pg's link is reading the view, which the caller's
// relation latch already protects; the successor belongs to the same file,
// under the same latch, and a prefetch reads nothing a program can see. A
// link out of range, Nil included, is skipped.
func (p *pool) prefetch(pg *page.Page) {
	pg.Prefetch()
	if next := pg.Next(); next >= 0 && int(next) < p.lend.NumPages() {
		if succ, err := p.lend.Lend(next); err == nil {
			succ.Prefetch()
		}
	}
}

// Run is a sequence of views that defers its accounting: each View lends
// the page and counts it against the run's own previous page, touching no
// state of the pool, so several runs on one pool may view pages on as many
// goroutines at once. Settle then charges the views as if they had been
// made by View on the run's handle at that moment, in one step under the
// pool mutex: the same reads, the same hits, and the frame left holding
// the same page.
//
// A run exists only where deferring changes nothing: the pool has the
// single frame of the measurement policy, so whether a view is a hit
// depends only on the page viewed before it, and the store lends, so a
// view reads the store's own page, which is the frame's image whenever no
// frame is dirty. The caller keeps it so by holding the relation's shared
// latch from Run until the last Settle: no writer dirties a frame, and
// hence no flush writes a page on loan, while the latch is held. Other
// readers' views may land between a run's views and its Settle; that moves
// only where the run's views are ordered among theirs, which is timing
// already.
//
// A walk split over several goroutines charges its views through one run
// of its own: the workers view through runs that only lend, never settled,
// and the owner notes (Note) on its run each view the single walk would
// have made, in that walk's order, then settles it.
//
// One run is used by one goroutine at a time: its views by the goroutine
// that walks, its Settle by the one that owns the handle.
type Run struct {
	b    *Buffered
	lend lender
	// The views since the last Settle: the first and last page viewed,
	// the view count, and the reads among views after the first (a view
	// of any page but the previous one).
	first, last page.ID
	lastPg      *page.Page
	views       int64
	reads       int64
	// failed is set when the last view could not lend its page: View's
	// read of it would have failed the same way, leaving the frame empty.
	failed bool
}

// Run returns a run on this handle, or nil when deferred views could
// count differently from View: when the store does not lend, when the
// pool has more than one frame, or when a frame is dirty (a dirty pending
// scratch is synced into its frame first).
func (b *Buffered) Run() *Run {
	p := b.p
	if p.lend == nil || len(p.frames) != 1 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sync()
	if p.frames[0].dirty {
		return nil
	}
	return &Run{b: b, lend: p.lend}
}

// View lends page id, prefetching it as Buffered.View does, and counts the
// view against the run's previous one. The page stays valid while the
// caller holds the relation's latch. A run ends at its first failed view.
func (r *Run) View(id page.ID) (*page.Page, error) {
	pg, err := r.lend.Lend(id)
	if err != nil {
		r.failed = true
		return nil, fmt.Errorf("buffer %q: read page %d: %w", r.b.p.name, id, err)
	}
	switch {
	case r.views == 0:
		r.first = id
	case id != r.last:
		r.reads++
	}
	r.last, r.lastPg = id, pg
	r.views++
	r.b.p.prefetch(pg)
	return pg, nil
}

// ViewAhead is View: a run exists only on a pool without readahead, where
// Buffered.ViewAhead is View exactly. It lets a sequential walk read
// through a run.
func (r *Run) ViewAhead(id page.ID, _ int) (*page.Page, error) { return r.View(id) }

// Note counts a view of page id as View does, without lending the page:
// the view was made through another run on the same pool, which lent it.
// Settle lends the last noted page again when it must leave it in the
// frame.
func (r *Run) Note(id page.ID) {
	switch {
	case r.views == 0:
		r.first = id
	case id != r.last:
		r.reads++
	}
	r.last, r.lastPg = id, nil
	r.views++
}

// NumPages reports the file size in pages, without the pool mutex.
func (r *Run) NumPages() int { return r.lend.NumPages() }

// Name returns the file name of the run's buffer.
func (r *Run) Name() string { return r.b.p.name }

// Settle charges the run's views to the pool and to its handle's account
// and leaves the frame as those views through View would have, then empties
// the run for its next views. The first view is a hit exactly when the
// frame holds its page now.
func (r *Run) Settle() {
	if r.views == 0 && !r.failed {
		return
	}
	b, p := r.b, r.b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	b.begin() // ticks once; each view ticks once
	p.tick += r.views - 1
	if r.failed {
		p.tick++
	}
	f := &p.frames[0]
	d := Stats{Reads: r.reads, Hits: r.views - r.reads}
	if r.views > 0 && f.id != r.first {
		d.Reads++
		d.Hits--
	}
	switch {
	case r.failed:
		p.empty(f)
	case d.Reads > 0:
		p.empty(f)
		pg := r.lastPg
		if pg == nil {
			// A noted page was lent to the run that viewed it, under the
			// same latch, so it lends again; if it did not, the frame
			// stays empty, as after a failed view.
			var err error
			if pg, err = r.lend.Lend(r.last); err != nil {
				break
			}
		}
		f.id, f.pg = r.last, pg
	case f.img != nil:
		// Every view was a hit on a pool-owned image: the handle holds
		// it, as the last View would.
		f.img.refs++
		b.held = f.img
	}
	if !r.failed {
		f.used = p.tick
	}
	d.ReadOps = d.Reads
	b.charge(d)
	p.pending = nil
	*r = Run{b: b, lend: r.lend}
}

// Fetch brings page id into a frame (evicting and, if dirty, flushing the
// LRU occupant) and returns a pointer to the handle's private copy of it.
// The pointer is valid only until the next call on this handle;
// modifications must be announced with MarkDirty before then.
func (b *Buffered) Fetch(id page.ID) (*page.Page, error) {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	b.begin()
	f, err := b.resident(id)
	if err != nil {
		return nil, err
	}
	v := b.scratch()
	v.pg = *f.pg
	v.id = id
	v.dirty = false
	p.pending = v
	return &v.pg, nil
}

// scratch returns the handle's scratch page, making it on first use: a
// handle that only ever views never pays for one.
func (b *Buffered) scratch() *view {
	if b.v == nil {
		b.v = &view{id: page.Nil}
	}
	return b.v
}

// ViewAhead is View for a sequential walk that has ahead more pages in its
// run after id. On a miss it reads the requested page plus up to ahead
// following pages in one storage operation, installing each in its own
// frame. The pool decides how far to read: the batch is capped by the
// pool's readahead, by the file size, and by the first already-resident
// page, so the set of pages read is identical to what per-page fetches of
// the same run would read — Reads/Writes/Hits move exactly as they would
// for View; only ReadOps is smaller (one per batch). Pages deeper in the
// batch are installed as less recently used than the requested page, so
// LRU consumes a run front-to-back. On a pool without readahead — the
// measurement policy — it is View exactly, counters and all, and
// allocates nothing.
func (b *Buffered) ViewAhead(id page.ID, ahead int) (*page.Page, error) {
	// readahead is fixed when the pool is opened, so it is read unlocked.
	if ahead = min(ahead, b.p.readahead); ahead <= 0 {
		return b.View(id)
	}
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	b.begin()
	if f := p.lookup(id); f != nil {
		b.charge(Stats{Hits: 1})
		f.used = p.tick
		return b.hold(f), nil
	}
	// Size the batch: the requested page plus in-range, non-resident
	// successors. Stopping at the first resident page keeps every page of
	// the run read exactly once and guarantees no two frames ever hold the
	// same id.
	if last := page.ID(p.file.NumPages()) - 1; ahead > int(last-id) {
		ahead = int(last - id)
	}
	n := 1
	for n <= ahead && p.lookup(id+page.ID(n)) == nil {
		n++
	}
	// Gather the run before evicting anything, so a failed read leaves the
	// frames as they were. A store that cannot lend is read in one
	// operation, as the wrappers beneath it expect.
	src := make([]*page.Page, n)
	var err error
	if p.lend != nil {
		for j := range src {
			if src[j], err = p.lend.Lend(id + page.ID(j)); err != nil {
				break
			}
		}
	} else {
		batch := make([]page.Page, n)
		err = p.file.ReadPages(id, batch)
		for j := range src {
			src[j] = &batch[j]
		}
	}
	if err != nil {
		p.pending = nil
		return nil, fmt.Errorf("buffer %q: read pages %d..%d: %w", p.name, id, int(id)+n-1, err)
	}
	// Install back-to-front so the requested page ends most recently used
	// and every eviction picks a pre-existing frame (the fresh ticks are
	// always newer).
	var first *frame
	for j := n - 1; j >= 0; j-- {
		f := p.victim()
		if err := b.flushFrame(f); err != nil {
			return nil, err
		}
		p.empty(f)
		if p.lend != nil {
			f.pg = src[j]
		} else {
			p.own(f)
			f.img.pg = *src[j]
		}
		f.id = id + page.ID(j)
		f.used = p.tick
		p.tick++
		first = f
	}
	b.charge(Stats{Reads: int64(n), ReadOps: 1})
	return b.hold(first), nil
}

// MarkDirty records that the page this handle last fetched or allocated
// was modified; it will be written back on eviction or Flush. A buffer
// call on the pool in between — on any handle — ends the scratch's
// lease, and marking it then is a misuse, which panics.
func (b *Buffered) MarkDirty() {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.v == nil || p.pending != b.v || b.v.id == page.Nil {
		panic(fmt.Sprintf("buffer %q: MarkDirty after another buffer call", p.name))
	}
	if p.armed {
		p.capture(p.lookup(b.v.id))
	}
	b.v.dirty = true
}

// Arm starts a statement that is all or nothing: until End, the first
// MarkDirty of each page the file held at Arm keeps that page's image as
// it stood before the statement changed it, reading nothing and moving no
// counter. The caller holds the relation exclusively from Arm to End.
func (b *Buffered) Arm() {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed, p.base = true, p.file.NumPages()
	p.gen++
}

// capture keeps f's image the first time the armed statement dirties its
// page; a page allocated since Arm has none to keep. Caller holds p.mu.
func (p *pool) capture(f *frame) {
	if f == nil || int(f.id) >= p.base {
		return
	}
	if len(p.seen) < p.base {
		p.seen = slices.Grow(p.seen, p.base-len(p.seen))[:p.base]
	}
	if p.seen[f.id] == p.gen {
		return
	}
	p.seen[f.id] = p.gen
	img := p.newImage()
	img.pg = *f.pg
	p.shadows = append(p.shadows, shadow{id: f.id, img: img})
}

// End ends the armed statement; the kept images go back to the pool for
// the next one. With keep the statement's work stays. Without it End
// undoes the work, below the counters: each page the statement dirtied
// gets its kept image back, in its frame, dirty, when the page is
// resident, else through WritePage (a lent page is rewritten where it
// lies); the pages it allocated leave the frames unflushed, and the file
// shrinks back to its size at Arm. Every page is put back even when one
// fails; the first error is returned. On an unarmed pool End does nothing.
func (b *Buffered) End(keep bool) error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.armed && !keep {
		if p.pending != nil {
			p.pending.dirty = false
			p.pending = nil
		}
		for _, s := range p.shadows {
			if f := p.lookup(s.id); f != nil {
				p.own(f)
				f.img.pg = s.img.pg
				f.dirty = true
			} else if werr := p.file.WritePage(s.id, &s.img.pg); werr != nil && err == nil {
				err = fmt.Errorf("buffer %q: revert page %d: %w", p.name, s.id, werr)
			}
		}
		for i := range p.frames {
			if f := &p.frames[i]; f.id != page.Nil && int(f.id) >= p.base {
				p.empty(f)
			}
		}
		if p.file.NumPages() > p.base {
			if serr := p.file.Shrink(p.base); serr != nil && err == nil {
				err = fmt.Errorf("buffer %q: revert allocations: %w", p.name, serr)
			}
		}
	}
	for _, s := range p.shadows {
		p.release(s.img)
	}
	clear(p.shadows)
	p.shadows, p.armed = p.shadows[:0], false
	// The next statement's captures reuse the images of this one's, up to
	// 64 of them; a larger statement's go to the collector.
	if len(p.free) > 64 {
		clear(p.free[64:])
		p.free = p.free[:64]
	}
	return err
}

// Allocate extends the file by one page, brings the new (unformatted) page
// into a frame marked dirty, and returns its ID with the handle's stable
// copy. Allocation itself does not count as a read; the page is counted as
// a write when flushed.
func (b *Buffered) Allocate() (page.ID, *page.Page, error) {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	b.begin()
	// Extend the file before flushing the victim: a caller may have linked
	// the predicted new page ID into an overflow chain on a page now
	// sitting dirty in a frame, and flushing that link to disk before the
	// allocation is known to succeed would persist a dangling chain.
	// The order is counter-neutral — the same writes happen either way.
	id, err := p.file.Allocate()
	if err != nil {
		return page.Nil, nil, fmt.Errorf("buffer %q: allocate: %w", p.name, err)
	}
	f := p.victim()
	if err := b.flushFrame(f); err != nil {
		return page.Nil, nil, err
	}
	p.own(f)
	f.img.pg = page.Page{}
	f.id = id
	f.used = p.tick
	f.dirty = true
	v := b.scratch()
	v.pg = page.Page{}
	v.id = id
	v.dirty = true // callers format the fresh page in place
	p.pending = v
	return id, &v.pg, nil
}

// Flush writes every dirty frame back. The frames remain resident.
func (b *Buffered) Flush() error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	return b.flushLocked()
}

func (b *Buffered) flushLocked() error {
	p := b.p
	p.sync()
	for i := range p.frames {
		if err := b.flushFrame(&p.frames[i]); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate flushes and then empties every frame, so the next Fetch is a
// guaranteed read. The benchmark calls this between queries to make each
// measurement cold.
func (b *Buffered) Invalidate() error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := b.flushLocked(); err != nil {
		return err
	}
	for i := range p.frames {
		p.empty(&p.frames[i])
	}
	p.pending = nil
	return nil
}

// NumPages reports the current file size in pages.
func (b *Buffered) NumPages() int {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	return b.p.file.NumPages()
}

// Stats returns the pool's global counters accumulated since the last
// ResetStats, regardless of which handle or account caused them.
func (b *Buffered) Stats() Stats {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	return b.p.stats
}

// ResetStats zeroes the pool's global counters. Session accounts are
// owned by their sessions and are not touched.
func (b *Buffered) ResetStats() {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	b.p.stats = Stats{}
}

// Truncate discards all pages and empties the frames.
func (b *Buffered) Truncate() error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		p.empty(&p.frames[i])
	}
	p.pending = nil
	return p.file.Shrink(0)
}

// Close flushes and closes the underlying file.
func (b *Buffered) Close() error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := b.flushLocked(); err != nil {
		return err
	}
	return p.file.Close()
}

// WriteDirty writes every dirty frame through to the file and leaves it
// dirty and uncounted: a commit hands its written pages to the
// write-ahead log this way (wal.LoggedFile parks what it is given). The
// eviction or flush that later cleans a frame still writes it and counts
// that write, so the Section 5.1 counters see no commit. On a write error
// the frame stays dirty, as it would anyway.
func (b *Buffered) WriteDirty() error {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sync()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.dirty || f.id == page.Nil {
			continue
		}
		if err := p.file.WritePage(f.id, f.pg); err != nil {
			return fmt.Errorf("buffer %q: write through page %d: %w", p.name, f.id, err)
		}
	}
	return nil
}

// String describes the buffer for diagnostics.
func (b *Buffered) String() string {
	return fmt.Sprintf("buffer(%s, %d frames)", b.p.name, len(b.p.frames))
}
