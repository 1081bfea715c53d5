package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// frameState is what a settled run must leave in the single frame, and in
// the handle, exactly as the same views through View would.
type frameState struct {
	id      page.ID
	lent    bool // the frame holds the store's page, not an image
	dirty   bool
	held    bool // the handle holds an image
	pending bool
}

func stateOf(b *Buffered) frameState {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &p.frames[0]
	return frameState{id: f.id, lent: f.pg != nil && f.img == nil, dirty: f.dirty,
		held: b.held != nil, pending: p.pending != nil}
}

// lendingPool makes a single-frame pool over a store of n pages, each
// stamped with its id.
func lendingPool(t *testing.T, n int) *Buffered {
	t.Helper()
	b := New("r", storage.NewMem())
	for i := 0; i < n; i++ {
		_, p, err := b.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stamp(p, byte(i))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunSettlesLikeView cuts random page-id sequences into runs and
// settles them in order on one pool, while a twin pool views the same ids
// one by one through View. After every run the twins' counters, accounts,
// frames and handles must agree, and every page a run lent must be the
// page asked for. Some sequences view a page past the file, which fails
// the run there as it fails View; some start with the frame owning a clean
// image (left by Allocate and Flush) rather than a lent page. Half the
// seeds note their views (Run.Note) instead of viewing through the run.
func TestRunSettlesLikeView(t *testing.T) {
	const pages = 6
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			viaView := lendingPool(t, pages).WithAccount(new(Stats))
			viaRun := lendingPool(t, pages).WithAccount(new(Stats))
			if rng.Intn(2) == 0 { // a frame lent by an earlier view
				id := page.ID(rng.Intn(pages))
				for _, b := range []*Buffered{viaView, viaRun} {
					if _, err := b.View(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			// On odd seeds the views that succeed are made through a
			// second run, which only lends, and noted on the first.
			note, lender := seed%2 == 1, viaRun.Run()
			for cut := 0; cut < 8; cut++ {
				r := viaRun.Run()
				if r == nil {
					t.Fatal("Run on a clean single-frame lending pool is nil")
				}
				n := rng.Intn(6)
				for k := 0; k < n; k++ {
					id := page.ID(rng.Intn(pages))
					if rng.Intn(4) == 0 && k > 0 { // stay on the page: a re-view
						id = r.last
					}
					if rng.Intn(25) == 0 {
						id = pages + 3
					}
					want, wantErr := viaView.View(id)
					var got *page.Page
					var err error
					if note && id < pages {
						got, err = lender.View(id)
						r.Note(id)
					} else {
						got, err = r.View(id)
					}
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("view %d: run error %v, View error %v", id, err, wantErr)
					}
					if err != nil {
						if err.Error() != wantErr.Error() {
							t.Fatalf("run error %q, View error %q", err, wantErr)
						}
						break
					}
					g, _ := stamped(got)
					w, _ := stamped(want)
					if g != byte(id) || w != byte(id) {
						t.Fatalf("page %d: run lent page %d, View gave page %d", id, g, w)
					}
				}
				r.Settle()
				if got, want := viaRun.p.stats, viaView.p.stats; got != want {
					t.Fatalf("cut %d: pool stats %+v, want %+v", cut, got, want)
				}
				if got, want := *viaRun.acct, *viaView.acct; got != want {
					t.Fatalf("cut %d: account %+v, want %+v", cut, got, want)
				}
				if got, want := stateOf(viaRun), stateOf(viaView); got != want {
					t.Fatalf("cut %d: frame %+v, want %+v", cut, got, want)
				}
				if viaRun.p.tick != viaView.p.tick {
					t.Fatalf("cut %d: tick %d, want %d", cut, viaRun.p.tick, viaView.p.tick)
				}
			}
		})
	}
}

// TestRunRefused pins when a pool gives out no run: deferred views would
// read the store under a dirty frame, or count hits a second frame makes,
// or a store that does not lend has no page to give them.
func TestRunRefused(t *testing.T) {
	dirtyFrame := lendingPool(t, 2)
	if _, _, err := dirtyFrame.Allocate(); err != nil {
		t.Fatal(err)
	}
	dirtyPending := lendingPool(t, 2)
	if _, err := dirtyPending.Fetch(1); err != nil {
		t.Fatal(err)
	}
	dirtyPending.MarkDirty()
	twoFrames := NewPooled("r", storage.NewMem(), 2, 0)
	wrapped := New("r", &recordingFile{File: storage.NewMem()})
	for name, b := range map[string]*Buffered{
		"dirty frame":           dirtyFrame,
		"dirty pending scratch": dirtyPending,
		"two frames":            twoFrames,
		"store does not lend":   wrapped,
	} {
		if b.Run() != nil {
			t.Errorf("%s: Run gave out a run", name)
		}
	}
	if err := dirtyFrame.Flush(); err != nil {
		t.Fatal(err)
	}
	if dirtyFrame.Run() == nil {
		t.Error("flushed pool: Run is nil")
	}
}
