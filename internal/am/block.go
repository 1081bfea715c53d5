package am

import "tdbms/internal/page"

// Block is a page-at-a-time tuple delivery: one NextBlock call fetches the
// page under the iterator's cursor once and offers the block every
// candidate still on it. The iterator reads the page in place; the block
// copies only the tuples that survive Ranges and Qual, so its tuples stay
// valid after further iteration — until the block's arena is reset — and a
// consumer may hold them as long as that.
type Block struct {
	RIDs []page.RID
	Tups [][]byte
	// Ranges are tested on every candidate's bytes, in place, before Qual:
	// a candidate outside one of them is dropped without a call.
	Ranges []Range
	// Qual, when set, is shown every candidate within Ranges, in place: the
	// slice aliases the page under the iterator's cursor and must not be
	// kept or written. Only tuples it accepts are copied into the block.
	Qual func(rid page.RID, tup []byte) (bool, error)
	// Arena backs the block's tuples. A caller that runs many short scans
	// shares one arena between their blocks and resets it when every tuple
	// is dead; a nil Arena gives the block one of its own, never reset.
	Arena *Arena

	// offered counts the candidates shown to the block since Reset, whether
	// or not Ranges and Qual kept them. Walk paces itself by it, so the
	// pages a scan fetches do not depend on how selective they are.
	offered int
}

// Reset empties the block. Tuples from previous fills stay valid: the
// arena is not touched.
func (b *Block) Reset() {
	b.RIDs = b.RIDs[:0]
	b.Tups = b.Tups[:0]
	b.offered = 0
}

// Len is the number of tuples in the block.
func (b *Block) Len() int { return len(b.Tups) }

// Offer shows the block one candidate, in place, and copies it in if it is
// within Ranges and Qual accepts it (or there is no Qual). Walk offers the
// tuples of each page it visits; an iterator that orders its candidates
// some other way offers them itself.
func (b *Block) Offer(rid page.RID, tup []byte) error {
	b.offered++
	if !Within(b.Ranges, tup) {
		return nil
	}
	if b.Qual != nil {
		ok, err := b.Qual(rid, tup)
		if err != nil || !ok {
			return err
		}
	}
	if b.Arena == nil {
		b.Arena = new(Arena)
	}
	b.Tups = append(b.Tups, b.Arena.Copy(tup))
	b.RIDs = append(b.RIDs, rid)
	return nil
}

// fill offers the block the live tuples of p (page id) that m accepts,
// from slot *slot on, until max candidates have been offered or the page
// runs out, leaving *slot where the next fill resumes. It reports whether
// the page ran out. The header is checked once, when there is a slot left
// to read; the slots are then read in one pass, each key compared in place.
func (b *Block) fill(p *page.Page, id page.ID, slot *int, m *Match, max int) (bool, error) {
	s := *slot
	if s >= p.Slots() {
		return true, nil
	}
	n, width, err := p.Lines()
	if err != nil {
		return false, err
	}
	key, filter, lo, hi, above := m.Key, m.Filter, m.Lo, m.Hi, m.Above
	for ; s < n && b.offered < max; s++ {
		tup := p.Tuple(s, width)
		if tup == nil {
			continue
		}
		if filter {
			k := key.Extract(tup)
			if k > hi {
				above = true
			}
			if k < lo || k > hi {
				continue
			}
		}
		if err := b.Offer(page.RID{Page: id, Slot: uint16(s)}, tup); err != nil {
			*slot, m.Above = s+1, above
			return false, err
		}
	}
	*slot, m.Above = s, above
	return s >= n, nil
}

// Arena is the backing store of block tuples: a bump allocator over chunks
// that start small and double, so a one-row answer costs a kilobyte and a
// long scan a few allocations. Reset recycles the chunks for the next
// statement without zeroing them.
type Arena struct {
	chunks [][]byte
	n      int // chunks[:n] hold live tuples; chunks[n-1] is being filled
}

const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 16
	// arenaKeep bounds what Reset retains, so one large scan does not pin
	// its peak for the rest of the session.
	arenaKeep = 1 << 20
)

// Copy returns a copy of tup that stays valid until Reset. Chunks are
// never grown in place, so earlier tuples keep pointing at their chunk
// when a new one starts.
func (a *Arena) Copy(tup []byte) []byte {
	if a.n == 0 || len(a.chunks[a.n-1])+len(tup) > cap(a.chunks[a.n-1]) {
		a.grow(len(tup))
	}
	c := a.chunks[a.n-1]
	start := len(c)
	c = append(c, tup...)
	a.chunks[a.n-1] = c
	return c[start:len(c):len(c)]
}

// grow starts the next chunk: a retained one when it is large enough, else
// a new one twice the size of the last.
func (a *Arena) grow(need int) {
	if a.n < len(a.chunks) && cap(a.chunks[a.n]) >= need {
		a.chunks[a.n] = a.chunks[a.n][:0]
		a.n++
		return
	}
	size := arenaMinChunk
	if a.n > 0 {
		size = min(2*cap(a.chunks[a.n-1]), arenaMaxChunk)
	}
	a.chunks = append(a.chunks[:a.n], make([]byte, 0, max(size, need)))
	a.n++
}

// Reset invalidates every tuple handed out and keeps up to arenaKeep bytes
// of chunks for reuse.
func (a *Arena) Reset() {
	kept, i := 0, 0
	for i < len(a.chunks) && kept+cap(a.chunks[i]) <= arenaKeep {
		kept += cap(a.chunks[i])
		i++
	}
	clear(a.chunks[i:])
	a.chunks = a.chunks[:i]
	a.n = 0
}
