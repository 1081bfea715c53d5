package am

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tdbms/internal/page"
)

// refNext is the slot-at-a-time restriction Block.fill replaced, kept as
// its reference: it returns the next live tuple of p at or after slot
// *slot that m accepts, and moves *slot past it; ok is false when the page
// has no more. Every slot goes through page.Get, which checks the header.
func refNext(m *Match, p *page.Page, slot *int) (s int, tup []byte, ok bool, err error) {
	for *slot < p.Slots() {
		s = *slot
		*slot++
		tup, err = p.Get(s)
		if err == page.ErrBadSlot {
			continue
		}
		if err != nil {
			return 0, nil, false, err
		}
		if m.Filter {
			k := m.Key.Extract(tup)
			if k > m.Hi {
				m.Above = true
			}
			if k < m.Lo || k > m.Hi {
				continue
			}
		}
		return s, tup, true, nil
	}
	return 0, nil, false, nil
}

// refFill is Block.fill as it was over refNext.
func (b *Block) refFill(p *page.Page, id page.ID, slot *int, m *Match, max int) (bool, error) {
	for b.offered < max {
		s, tup, ok, err := refNext(m, p, slot)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if err := b.Offer(page.RID{Page: id, Slot: uint16(s)}, tup); err != nil {
			return false, err
		}
	}
	return *slot >= p.Slots(), nil
}

// fillCall is what one fill call did: the candidates its Qual was shown,
// the tuples the block kept, and where it left the cursor and the match.
type fillCall struct {
	Shown []page.RID
	RIDs  []page.RID
	Tups  []string
	Slot  int
	Done  bool
	Above bool
	Err   error
}

// fillCase is one generated page and restriction.
type fillCase struct {
	p       page.Page
	m       Match
	max     int
	reject  int // Qual rejects slots s with s%reject == 0 (0: accepts all)
	failAt  int // Qual fails on this slot (-1: never)
	corrupt string
}

var errQual = errors.New("qual failed")

// genFillCase builds a random page: a tuple width with a 1-, 2- or 4-byte
// key somewhere in it, a random number of tuples with keys from a small
// signed range, some of them deleted (dead slots, trailing ones included),
// and sometimes a header that no Format/Insert sequence produces.
func genFillCase(rng *rand.Rand) fillCase {
	var c fillCase
	kw := []int{1, 2, 4}[rng.Intn(3)]
	width := kw + rng.Intn(124)
	c.m.Key = Key{Offset: rng.Intn(width - kw + 1), Width: kw}
	c.p.Format(width, page.KindData)
	tup := make([]byte, width)
	for n := rng.Intn(page.Capacity(width) + 1); n > 0; n-- {
		rng.Read(tup)
		k := rng.Intn(41) - 20
		for i := 0; i < kw; i++ {
			tup[c.m.Key.Offset+i] = byte(k >> (8 * i))
		}
		if _, err := c.p.Insert(tup); err != nil {
			panic(err)
		}
	}
	for s := 0; s < c.p.Slots(); s++ {
		if rng.Intn(4) == 0 {
			if err := c.p.Delete(s); err != nil {
				panic(err)
			}
		}
	}
	c.m.Filter = rng.Intn(2) == 0
	c.m.Lo, c.m.Hi = int64(rng.Intn(45)-22), int64(rng.Intn(45)-22)
	c.m.Above = rng.Intn(4) == 0
	c.max = 1 + rng.Intn(c.p.Slots()+1)
	c.reject = rng.Intn(4)
	c.failAt = -1
	if rng.Intn(8) == 0 {
		c.failAt = rng.Intn(c.p.Slots() + 1)
	}
	switch rng.Intn(12) {
	case 0:
		c.corrupt = "width past the page"
		put16(&c.p, 6, page.Size-page.HeaderSize+1+rng.Intn(100))
	case 1:
		c.corrupt = "lines past the capacity"
		put16(&c.p, 4, page.Capacity(width)+1+rng.Intn(50))
	case 2:
		c.corrupt = "lines on a width-0 page"
		put16(&c.p, 6, 0)
		put16(&c.p, 4, 1+rng.Intn(50))
	case 3:
		c.corrupt = "no lines, width past the page"
		put16(&c.p, 6, page.Size-page.HeaderSize+1+rng.Intn(100))
		put16(&c.p, 4, 0)
	}
	return c
}

func put16(p *page.Page, off, v int) {
	p[off], p[off+1] = byte(v), byte(v>>8)
}

// run walks c's page the way Walk does — one call per block, each
// resuming where the last left the cursor — with fill or the reference.
func (c *fillCase) run(ref bool) []fillCall {
	m := c.m
	var calls []fillCall
	var shown []page.RID
	blk := Block{Qual: func(rid page.RID, tup []byte) (bool, error) {
		shown = append(shown, rid)
		if int(rid.Slot) == c.failAt {
			return false, errQual
		}
		return c.reject == 0 || int(rid.Slot)%c.reject != 0, nil
	}}
	slot := 0
	for i := 0; ; i++ {
		blk.Reset()
		shown = nil
		var done bool
		var err error
		if ref {
			done, err = blk.refFill(&c.p, 3, &slot, &m, c.max)
		} else {
			done, err = blk.fill(&c.p, 3, &slot, &m, c.max)
		}
		call := fillCall{Shown: shown, RIDs: append([]page.RID(nil), blk.RIDs...),
			Slot: slot, Done: done, Above: m.Above, Err: err}
		for _, t := range blk.Tups {
			call.Tups = append(call.Tups, string(t))
		}
		if errors.Is(err, page.ErrCorrupt) {
			// The reference had moved past the slot whose header check
			// failed; fill leaves the cursor where it was. A walk that
			// fails is abandoned, so only the error is compared.
			call.Slot = -1
		}
		calls = append(calls, call)
		if done || err != nil || i > page.Size {
			return calls
		}
	}
}

// TestFillMatchesReference is the property that lets fill replace the
// slot-at-a-time loop: over generated pages — dead slots, key widths 1, 2
// and 4, Filter on and off with random bounds, every max from 1 to the
// line count, a Qual that rejects or fails — each call offers the same
// candidates, keeps the same tuples, leaves the same resume slot and
// Above, and returns the same error. A corrupt header fails before any
// tuple is offered; a corrupt page with no lines is done, as it was.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	corrupt := map[string]int{}
	for i := 0; i < 20000; i++ {
		c := genFillCase(rng)
		got, want := c.run(false), c.run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (width %d, key %+v, match %+v, max %d, reject %d, failAt %d, corrupt %q):\nfill      %s\nreference %s",
				i, c.p.Width(), c.m.Key, c.m, c.max, c.reject, c.failAt, c.corrupt, fmt.Sprint(got), fmt.Sprint(want))
		}
		if c.corrupt == "" {
			continue
		}
		corrupt[c.corrupt]++
		last := got[len(got)-1]
		if c.p.Slots() == 0 {
			if len(got) != 1 || !last.Done || last.Err != nil {
				t.Fatalf("case %d: corrupt page with no lines: %+v, want done without error", i, got)
			}
			continue
		}
		if len(got) != 1 || len(last.Shown) != 0 || !errors.Is(last.Err, page.ErrCorrupt) {
			t.Fatalf("case %d: %s: %+v, want ErrCorrupt before any offer", i, c.corrupt, got)
		}
	}
	if len(corrupt) != 4 {
		t.Fatalf("corrupt headers generated: %v, want all four kinds", corrupt)
	}
}
