// Package am defines the access-method interface shared by the heap, static
// hash, and ISAM storage structures (packages heapfile, hashfile, isam),
// plus the integer key descriptor they probe by.
//
// The prototype keeps Ingres's convention: a storage structure is chosen per
// relation with `modify R to hash|isam|heap on attr where fillfactor = N`,
// and every version of a tuple carries the same key, so overflow chains
// grow with the update count (the effect Section 5.3 analyzes).
package am

import (
	"errors"
	"math"

	"tdbms/internal/page"
)

// Key locates the integer key inside a fixed-width tuple. Width is 1, 2, or
// 4 bytes, read as a signed little-endian integer (Quel i1/i2/i4).
type Key struct {
	Offset int
	Width  int
}

// Extract reads the key value from a tuple.
func (k Key) Extract(tup []byte) int64 {
	b := tup[k.Offset:]
	switch k.Width {
	case 1:
		return int64(int8(b[0]))
	case 2:
		return int64(int16(uint16(b[0]) | uint16(b[1])<<8))
	case 4:
		return int64(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
	}
	panic("am: unsupported key width")
}

// Range restricts the integer its Key locates to Lo <= value <= Hi; a range
// with Lo > Hi accepts nothing.
type Range struct {
	Key
	Lo, Hi int64
}

// Within reports whether tup satisfies every range of rs.
func Within(rs []Range, tup []byte) bool {
	for _, r := range rs {
		if k := r.Extract(tup); k < r.Lo || k > r.Hi {
			return false
		}
	}
	return true
}

// Iterator delivers tuples a page at a time. NextBlock resets blk and
// offers it up to max candidates from the page under the cursor, fetching
// that page exactly once; it returns false only at exhaustion (with an
// empty block). A block whose Qual rejected every candidate comes back
// empty with true. A call that stops at max mid-page leaves the cursor on
// that page, and the next call fetches it again. An iterator holds nothing
// that needs releasing: a scan abandoned early is simply dropped.
type Iterator interface {
	NextBlock(blk *Block, max int) (bool, error)
}

// Marker is a store with state outside its pages — a B-tree's root, a
// two-level store's version chains — that Mark records and Rewind
// restores, beside the pages a failed statement's revert puts back
// (buffer.Buffered.End). A mark belongs to the view that made it.
type Marker interface {
	Mark()
	Rewind()
}

// File is the access-method interface the executor programs against.
type File interface {
	// Insert stores a tuple and returns its address. For keyed methods the
	// tuple is placed according to its key.
	Insert(tup []byte) (page.RID, error)
	// Get returns a copy of the tuple at rid.
	Get(rid page.RID) ([]byte, error)
	// Update overwrites the tuple at rid in place.
	Update(rid page.RID, tup []byte) error
	// Delete frees the slot at rid.
	Delete(rid page.RID) error
	// Scan iterates over every tuple, including overflow pages. Directory
	// pages (ISAM) are not touched, matching the cost model of Section 5.3.
	Scan() Iterator
	// Probe iterates over tuples whose key equals key. For a heap this
	// degenerates to a filtered full scan.
	Probe(key int64) Iterator
	// ProbeRange iterates over tuples with lo <= key <= hi. Ordered
	// methods (ISAM, B-tree) touch only the covering pages; unordered ones
	// fall back to a filtered scan.
	ProbeRange(lo, hi int64) Iterator
	// Keyed reports whether Probe is cheaper than Scan (hash and ISAM).
	Keyed() bool
	// Ordered reports whether ProbeRange is cheaper than Scan.
	Ordered() bool
}

// Empty is an Iterator that yields nothing.
type Empty struct{}

// NextBlock implements Iterator.
func (Empty) NextBlock(blk *Block, _ int) (bool, error) {
	blk.Reset()
	return false, nil
}

// Stop, returned by the function Each calls, ends the walk early; Each then
// returns nil.
var Stop = errors.New("am: stop")

// Each shows fn every tuple it yields, in place: tup aliases the page under
// the iterator's cursor and is valid only during the call, so a caller that
// keeps a tuple clones it, and fn must not touch the file being walked.
// Each returns the first error of the walk or of fn.
func Each(it Iterator, fn func(rid page.RID, tup []byte) error) error {
	blk := Block{Qual: func(rid page.RID, tup []byte) (bool, error) { return false, fn(rid, tup) }}
	for {
		ok, err := it.NextBlock(&blk, math.MaxInt)
		if errors.Is(err, Stop) {
			return nil
		}
		if !ok || err != nil {
			return err
		}
	}
}
