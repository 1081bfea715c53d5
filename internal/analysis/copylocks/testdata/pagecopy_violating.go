// Violating fixture for the pagecopy check: a page passed, returned,
// ranged and assigned by value, directly and inside a struct.
package fixture

import "tdbms/internal/page"

type frame struct {
	id page.ID
	pg page.Page
}

type handle struct {
	scratch page.Page
}

// adopt is the shape the buffer manager's read path had: the caller's
// `adopt(f.pg, id)` copies the page into the argument, the body copies the
// argument into the scratch.
func (h *handle) adopt(pg page.Page, id page.ID) *page.Page {
	h.scratch = pg
	return &h.scratch
}

func fetch(h *handle, f *frame) *page.Page {
	return h.adopt(f.pg, f.id)
}

func snapshot(p *page.Page) page.Page {
	return *p
}

func widths(ps []page.Page) int {
	total := 0
	for _, p := range ps {
		total += p.Width()
	}
	return total
}

func frameByValue(f frame) page.ID {
	return f.id
}

func evict(frames []frame, i int) {
	victim := frames[i]
	_ = victim.id
}
