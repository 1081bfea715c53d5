// Clean fixture for the pagecopy check: pages handled by pointer, fresh
// pages declared in place, and page slices passed as slices.
package fixture

import "tdbms/internal/page"

type frame struct {
	id page.ID
	pg *page.Page
}

func view(f *frame) *page.Page {
	return f.pg
}

func readInto(read func(page.ID, *page.Page) error, id page.ID) (int, error) {
	var p page.Page
	if err := read(id, &p); err != nil {
		return 0, err
	}
	return p.Width(), nil
}

func widths(ps []page.Page) int {
	total := 0
	for i := range ps {
		total += ps[i].Width()
	}
	return total
}

func fresh() *page.Page {
	return new(page.Page)
}

func batch(n int) []page.Page {
	return make([]page.Page, n)
}
