// Package page implements the fixed-size slotted page used by every access
// method in the system.
//
// The geometry mirrors the prototype measured by Ahn & Snodgrass (1986):
// pages are 1024 bytes, a 14-byte header is followed by a line-pointer
// array, and fixed-width tuples are stored from the end of the page
// downward. With this layout a page holds 9 static tuples of 108 bytes, or
// 8 tuples of any of the versioned types (116 or 124 bytes), exactly as
// reported in Section 5.1 of the paper.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the page size in bytes (Section 5.1: "The page size in our
// prototype is 1024 bytes").
const Size = 1024

// HeaderSize is the number of bytes reserved at the start of every page for
// the overflow link, line count, and flags.
const HeaderSize = 14

// linePointerSize is the per-tuple overhead of one line-pointer entry.
const linePointerSize = 2

// ID identifies a page within a single paged file. IDs are dense, starting
// at zero.
type ID int32

// Nil is the invalid page ID, used to terminate overflow chains.
const Nil ID = -1

// Header field offsets.
const (
	offNext  = 0  // int32: next page in the overflow chain, or Nil
	offCount = 4  // uint16: number of line pointers in use (including dead ones)
	offWidth = 6  // uint16: fixed tuple width this page was formatted for
	offFlags = 8  // uint16: page kind flags (kindData, kindDirectory, ...)
	offSpare = 10 // 2 bytes: auxiliary counter; 2 bytes unused, kept so HeaderSize stays 14
)

// Page kind flags, informational; access methods set them so that a raw
// file dump is self-describing.
const (
	KindData      uint16 = 0
	KindDirectory uint16 = 1
	KindIndex     uint16 = 2
)

// ErrFull is returned by Insert when the page has no free slot.
var ErrFull = errors.New("page: full")

// ErrBadSlot is returned when a slot index is out of range or empty.
var ErrBadSlot = errors.New("page: bad slot")

// ErrCorrupt is returned when a page's header is structurally impossible —
// a width or line count that no Format/Insert sequence can produce. A torn
// or partially-written page surfaces as this error instead of an
// out-of-bounds panic deep in slot arithmetic.
var ErrCorrupt = errors.New("page: corrupt header")

// Page is a single 1024-byte page. The zero value is an unformatted page;
// call Format before use.
type Page [Size]byte

// Capacity reports how many tuples of the given width fit on one page.
func Capacity(width int) int {
	if width <= 0 {
		return 0
	}
	return (Size - HeaderSize) / (width + linePointerSize)
}

// Format initializes p as an empty page holding tuples of the given fixed
// width. Any previous content is discarded.
func (p *Page) Format(width int, kind uint16) {
	for i := range p {
		p[i] = 0
	}
	p.setNext(Nil)
	binary.LittleEndian.PutUint16(p[offWidth:], uint16(width))
	binary.LittleEndian.PutUint16(p[offFlags:], kind)
}

// Width returns the tuple width the page was formatted for.
func (p *Page) Width() int {
	return int(binary.LittleEndian.Uint16(p[offWidth:]))
}

// Kind returns the page kind flags.
func (p *Page) Kind() uint16 {
	return binary.LittleEndian.Uint16(p[offFlags:])
}

// Aux returns the page's auxiliary counter (spare header field). ISAM
// directory and secondary-index pages use it as their raw entry count.
func (p *Page) Aux() int {
	return int(binary.LittleEndian.Uint16(p[offSpare:]))
}

// SetAux stores the auxiliary counter.
func (p *Page) SetAux(n int) {
	binary.LittleEndian.PutUint16(p[offSpare:], uint16(n))
}

// Next returns the next page in this page's overflow chain, or Nil.
func (p *Page) Next() ID {
	return ID(int32(binary.LittleEndian.Uint32(p[offNext:])))
}

// SetNext links the page to the next page of its overflow chain.
func (p *Page) SetNext(id ID) { p.setNext(id) }

func (p *Page) setNext(id ID) {
	binary.LittleEndian.PutUint32(p[offNext:], uint32(int32(id)))
}

// check validates the header invariants every slot operation relies on:
// the width fits a page and the line count never exceeds the capacity that
// width allows. Garbage headers (torn pages, unformatted data) fail here
// instead of panicking in slot arithmetic.
func (p *Page) check() error {
	w := p.Width()
	n := p.lineCount()
	if w > Size-HeaderSize {
		return ErrCorrupt
	}
	if w == 0 {
		if n != 0 {
			return ErrCorrupt
		}
		return nil
	}
	if n > Capacity(w) {
		return ErrCorrupt
	}
	return nil
}

// lineCount is the number of line pointers allocated so far (live or dead).
func (p *Page) lineCount() int {
	return int(binary.LittleEndian.Uint16(p[offCount:]))
}

func (p *Page) setLineCount(n int) {
	binary.LittleEndian.PutUint16(p[offCount:], uint16(n))
}

// linePtr returns the stored tuple offset for a slot (0 means dead/free).
func (p *Page) linePtr(slot int) int {
	return int(binary.LittleEndian.Uint16(p[HeaderSize+slot*linePointerSize:]))
}

func (p *Page) setLinePtr(slot, off int) {
	binary.LittleEndian.PutUint16(p[HeaderSize+slot*linePointerSize:], uint16(off))
}

// slotOffset computes the fixed data offset for a slot index.
func (p *Page) slotOffset(slot int) int {
	w := p.Width()
	return Size - (slot+1)*w
}

// Slots returns the number of slot positions in use (including dead slots);
// valid slot indexes are 0..Slots()-1.
func (p *Page) Slots() int { return p.lineCount() }

// Lines checks the header once and returns the line count and the tuple
// width, or ErrCorrupt. A reader that visits every slot of a page checks
// it here and then reads the slots with Tuple, unchecked.
func (p *Page) Lines() (n, width int, err error) {
	if err := p.check(); err != nil {
		return 0, 0, err
	}
	return p.lineCount(), p.Width(), nil
}

// Tuple returns the tuple in slot s, or nil when the slot is dead. width
// is what Lines returned for this page and s is below the line count it
// returned; Tuple checks neither. The slice aliases the page, as Get's
// does.
func (p *Page) Tuple(s, width int) []byte {
	if p.linePtr(s) == 0 {
		return nil
	}
	off := Size - (s+1)*width
	return p[off : off+width]
}

// Prefetch asks the processor to start loading every cache line of p and
// returns at once; it reads nothing and cannot fault. A walk that will
// read p soon prefetches it so the page's lines arrive together instead
// of one dependent miss at a time. On amd64 and arm64 it is a short
// assembly kernel (page_amd64.s, page_arm64.s) that installs itself; on
// every other architecture it does nothing.
func (p *Page) Prefetch() {
	if prefetchLines != nil {
		prefetchLines(p)
	}
}

// prefetchLines is the architecture's prefetch kernel, set by the init of
// page_amd64.go or page_arm64.go and nil elsewhere.
var prefetchLines func(p *Page)

// Live reports the number of live tuples on the page.
func (p *Page) Live() int {
	if p.check() != nil {
		return 0
	}
	n := 0
	for i := 0; i < p.lineCount(); i++ {
		if p.linePtr(i) != 0 {
			n++
		}
	}
	return n
}

// HasRoom reports whether Insert would succeed. A corrupt page has no room;
// the subsequent Insert reports why.
func (p *Page) HasRoom() bool {
	if p.check() != nil {
		return false
	}
	c := Capacity(p.Width())
	if p.lineCount() < c {
		return true
	}
	for i := 0; i < p.lineCount(); i++ {
		if p.linePtr(i) == 0 {
			return true
		}
	}
	return false
}

// Insert stores tup in a free slot and returns the slot index.
func (p *Page) Insert(tup []byte) (int, error) {
	if err := p.check(); err != nil {
		return 0, err
	}
	w := p.Width()
	if len(tup) != w {
		return 0, fmt.Errorf("page: tuple width %d, page formatted for %d", len(tup), w)
	}
	// Reuse a dead slot first so that in-place delete/replace does not leak.
	n := p.lineCount()
	slot := -1
	for i := 0; i < n; i++ {
		if p.linePtr(i) == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		if n >= Capacity(w) {
			return 0, ErrFull
		}
		slot = n
		p.setLineCount(n + 1)
	}
	off := p.slotOffset(slot)
	copy(p[off:off+w], tup)
	p.setLinePtr(slot, off)
	return slot, nil
}

// Get returns the tuple stored in slot. The returned slice aliases the page;
// callers that retain it across page evictions must copy it.
func (p *Page) Get(slot int) ([]byte, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if slot < 0 || slot >= p.lineCount() || p.linePtr(slot) == 0 {
		return nil, ErrBadSlot
	}
	off := p.slotOffset(slot)
	return p[off : off+p.Width()], nil
}

// Replace overwrites the tuple in slot in place.
func (p *Page) Replace(slot int, tup []byte) error {
	if err := p.check(); err != nil {
		return err
	}
	if slot < 0 || slot >= p.lineCount() || p.linePtr(slot) == 0 {
		return ErrBadSlot
	}
	if len(tup) != p.Width() {
		return fmt.Errorf("page: tuple width %d, page formatted for %d", len(tup), p.Width())
	}
	off := p.slotOffset(slot)
	copy(p[off:off+p.Width()], tup)
	return nil
}

// Delete frees the slot. The space is reusable by a later Insert.
func (p *Page) Delete(slot int) error {
	if err := p.check(); err != nil {
		return err
	}
	if slot < 0 || slot >= p.lineCount() || p.linePtr(slot) == 0 {
		return ErrBadSlot
	}
	p.setLinePtr(slot, 0)
	return nil
}

// Tuples iterates over live slots in slot order, calling fn with the slot
// index and tuple bytes. The tuple slice aliases the page.
func (p *Page) Tuples(fn func(slot int, tup []byte) bool) {
	n, width, err := p.Lines()
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		if tup := p.Tuple(i, width); tup != nil && !fn(i, tup) {
			return
		}
	}
}
