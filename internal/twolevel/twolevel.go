// Package twolevel implements the two-level store proposed in Section 6 of
// the paper: "we adopt a two level store with two storage areas to separate
// history data from current data. The primary store contains current
// versions which can satisfy all non-temporal queries ... The history store
// holds the remaining history versions."
//
// The history store comes in two layouts, matching Figure 10:
//
//   - Simple: history versions are appended in arrival order, with a
//     per-tuple version chain for the version scan. Versions of one tuple
//     end up scattered across the pages of successive update rounds.
//   - Clustered: history versions of the same tuple are co-located (a hash
//     file with one bucket per tuple), so "28 history versions [fit] into 4
//     pages" and the version scan costs 5 pages instead of 29.
package twolevel

import (
	"fmt"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
)

// Mode selects the history-store layout.
type Mode int

// History layouts.
const (
	Simple Mode = iota
	Clustered
)

// Store is a two-level store: a primary access-method file holding current
// versions and a history file holding superseded versions.
type Store struct {
	primary am.File
	key     am.Key
	width   int
	mode    Mode

	histHeap *heapfile.File // Simple
	histHash *hashfile.File // Clustered

	// chains models the per-tuple version chain of the simple layout: the
	// RIDs of a key's history versions in arrival order. A disk
	// implementation would thread these pointers through the tuples
	// themselves; traversing them reads exactly the pages recorded here, so
	// the I/O counts are identical.
	chains map[int64][]page.RID
	// grown lists, while marked, the key of every version appended to
	// chains since Mark, so Rewind can take them off again.
	grown  []int64
	marked bool
}

// Config parameterizes New.
type Config struct {
	Key   am.Key
	Width int
	Mode  Mode
	// ClusterBuckets is the bucket count of the clustered history store;
	// one bucket per expected tuple makes a version scan touch only that
	// tuple's versions.
	ClusterBuckets int
}

// New builds a two-level store over an existing primary file (holding only
// current versions) and a fresh, empty history buffer.
func New(primary am.File, history *buffer.Buffered, cfg Config) (*Store, error) {
	s := &Store{
		primary: primary,
		key:     cfg.Key,
		width:   cfg.Width,
		mode:    cfg.Mode,
		chains:  make(map[int64][]page.RID),
	}
	switch cfg.Mode {
	case Simple:
		s.histHeap = heapfile.NewKeyed(history, cfg.Width, cfg.Key)
	case Clustered:
		if cfg.ClusterBuckets < 1 {
			return nil, fmt.Errorf("twolevel: clustered store needs a positive bucket count")
		}
		hf, err := hashfile.Build(history, hashfile.Meta{
			Width:   cfg.Width,
			Key:     cfg.Key,
			Primary: cfg.ClusterBuckets,
		})
		if err != nil {
			return nil, err
		}
		s.histHash = hf
	default:
		return nil, fmt.Errorf("twolevel: unknown mode %d", cfg.Mode)
	}
	return s, nil
}

// View returns a read view of the same store: the given primary file view
// and a history handle on the same pool (typically both carrying a session
// account). The version-chain map is shared by pointer — it is mutated only
// under the database's exclusive writer lock.
func (s *Store) View(primary am.File, history *buffer.Buffered) *Store {
	v := &Store{
		primary: primary,
		key:     s.key,
		width:   s.width,
		mode:    s.mode,
		chains:  s.chains,
	}
	if s.mode == Simple {
		v.histHeap = s.histHeap.WithBuffer(history)
	} else {
		v.histHash = hashfile.New(history, s.histHash.Meta())
	}
	return v
}

// Mode returns the history layout.
func (s *Store) Mode() Mode { return s.mode }

// Primary exposes the primary file.
func (s *Store) Primary() am.File { return s.primary }

// Keyed reports whether the primary store supports keyed probes.
func (s *Store) Keyed() bool { return s.primary.Keyed() }

// Ordered reports whether the primary store supports range probes.
func (s *Store) Ordered() bool { return s.primary.Ordered() }

// historyFile returns the history store as an am.File.
func (s *Store) historyFile() am.File {
	if s.mode == Simple {
		return s.histHeap
	}
	return s.histHash
}

// InsertCurrent adds a new current version to the primary store.
func (s *Store) InsertCurrent(tup []byte) (page.RID, error) {
	return s.primary.Insert(tup)
}

// InsertHistory adds a version directly to the history store (the temporal
// delete marker of Section 4, which is never current in valid time) and
// returns its location there.
func (s *Store) InsertHistory(tup []byte) (page.RID, error) {
	rid, err := s.historyFile().Insert(tup)
	if err != nil {
		return page.NilRID, err
	}
	if s.mode == Simple {
		k := s.key.Extract(tup)
		s.chains[k] = append(s.chains[k], rid)
		if s.marked {
			s.grown = append(s.grown, k)
		}
	}
	return rid, nil
}

// Mark implements am.Marker: the version chains record what they grow by,
// and a B-tree primary its root.
func (s *Store) Mark() {
	s.grown, s.marked = s.grown[:0], true
	if m, ok := s.primary.(am.Marker); ok {
		m.Mark()
	}
}

// Rewind takes the versions appended since Mark off their chains, newest
// first, and restores a B-tree primary's root.
func (s *Store) Rewind() {
	for i := len(s.grown) - 1; i >= 0; i-- {
		k := s.grown[i]
		if c := s.chains[k]; len(c) > 1 {
			s.chains[k] = c[:len(c)-1]
		} else {
			delete(s.chains, k)
		}
	}
	s.grown = s.grown[:0]
	if m, ok := s.primary.(am.Marker); ok {
		m.Rewind()
	}
}

// Supersede replaces the current version at rid with its closed form
// `old`, moving it to the history store, and returns its new location.
func (s *Store) Supersede(rid page.RID, old []byte) (page.RID, error) {
	if err := s.primary.Delete(rid); err != nil {
		return page.NilRID, err
	}
	return s.InsertHistory(old)
}

// RemoveCurrent deletes a current version outright (static semantics; also
// used when a historical delete leaves no version behind).
func (s *Store) RemoveCurrent(rid page.RID) error {
	return s.primary.Delete(rid)
}

// UpdateCurrent overwrites a current version in place.
func (s *Store) UpdateCurrent(rid page.RID, tup []byte) error {
	return s.primary.Update(rid, tup)
}

// Get fetches a current version by RID.
func (s *Store) Get(rid page.RID) ([]byte, error) {
	return s.primary.Get(rid)
}

// GetHistory fetches a history version by RID.
func (s *Store) GetHistory(rid page.RID) ([]byte, error) {
	return s.historyFile().Get(rid)
}

// ScanCurrent iterates the primary store only — the fast path for the
// static queries Q05..Q10 whose Figure 10 cost is constant in the update
// count.
func (s *Store) ScanCurrent() am.Iterator { return s.primary.Scan() }

// ProbeCurrent probes the primary store only.
func (s *Store) ProbeCurrent(key int64) am.Iterator { return s.primary.Probe(key) }

// ScanAll iterates current versions, then all history versions.
func (s *Store) ScanAll() am.Iterator {
	return &concatIter{its: []am.Iterator{s.primary.Scan(), s.historyFile().Scan()}}
}

// ProbeAll yields every version of a key: the current version from the
// primary store, then the history versions via the version chain (simple)
// or the history bucket (clustered). This is the Q01/Q02 version scan.
func (s *Store) ProbeAll(key int64) am.Iterator {
	var hist am.Iterator
	if s.mode == Clustered {
		hist = s.histHash.Probe(key)
	} else {
		hist = &chainIter{buf: s.histHeap.Buffer(), rids: s.chains[key]}
	}
	return &concatIter{its: []am.Iterator{s.primary.Probe(key), hist}}
}

// RangeCurrent range-probes the primary store only.
func (s *Store) RangeCurrent(lo, hi int64) am.Iterator {
	return s.primary.ProbeRange(lo, hi)
}

// RangeAll yields every version with a key in [lo, hi]: a range probe of
// the primary store plus a filtered pass over the history store (history
// layouts keep no key order).
func (s *Store) RangeAll(lo, hi int64) am.Iterator {
	return &concatIter{its: []am.Iterator{
		s.primary.ProbeRange(lo, hi),
		s.historyFile().ProbeRange(lo, hi),
	}}
}

// HistoryScan iterates the history store only.
func (s *Store) HistoryScan() am.Iterator { return s.historyFile().Scan() }

// HistoryPages reports the history store size in pages.
func (s *Store) HistoryPages() int {
	if s.mode == Simple {
		return s.histHeap.NumPages()
	}
	return s.histHash.NumPages()
}

// concatIter yields its iterators' tuples one iterator after another.
type concatIter struct {
	its []am.Iterator
}

// NextBlock implements am.Iterator.
func (c *concatIter) NextBlock(blk *am.Block, max int) (bool, error) {
	for len(c.its) > 0 {
		ok, err := c.its[0].NextBlock(blk, max)
		if ok || err != nil {
			return ok, err
		}
		c.its = c.its[1:]
	}
	blk.Reset()
	return false, nil
}

// chainIter walks a simple-layout version chain through the history
// buffer, fetching each RID's page once for the run of RIDs on it, so
// scattered versions cost one page read each, exactly as a pointer-chain
// traversal would.
type chainIter struct {
	buf  *buffer.Buffered
	rids []page.RID // not yet offered
}

// NextBlock implements am.Iterator.
func (c *chainIter) NextBlock(blk *am.Block, max int) (bool, error) {
	blk.Reset()
	if len(c.rids) == 0 {
		return false, nil
	}
	if max < 1 {
		max = 1
	}
	for n := 0; n < max && len(c.rids) > 0; {
		id := c.rids[0].Page
		p, err := c.buf.View(id)
		if err != nil {
			return false, err
		}
		for ; n < max && len(c.rids) > 0 && c.rids[0].Page == id; n++ {
			tup, err := p.Get(int(c.rids[0].Slot))
			if err != nil {
				return false, err
			}
			if err := blk.Offer(c.rids[0], tup); err != nil {
				return false, err
			}
			c.rids = c.rids[1:]
		}
	}
	return true, nil
}
