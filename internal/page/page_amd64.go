package page

func init() { prefetchLines = prefetch }

// prefetch issues one prefetch per cache line of p (page_amd64.s).
//
//go:noescape
func prefetch(p *Page)
