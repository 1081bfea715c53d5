package core

import (
	"math"

	"tdbms/internal/am"
	"tdbms/internal/btree"
	"tdbms/internal/hashfile"
	"tdbms/internal/isam"
	"tdbms/internal/plan"
)

// This file computes the planner's cost inputs: per-access-path row and
// page estimates derived from the catalog statistics (ANALYZE plus
// incremental DML maintenance) and the storage geometry. The plan package
// compares these numbers without touching storage; the formulas here are
// the ones documented in plan/cost.go and DESIGN.md.

// primaryFile unwraps the access-method file behind a source (the primary
// file for the two-level store).
func primaryFile(h *relHandle) am.File {
	switch s := h.src.(type) {
	case *conventional:
		return s.file
	case *twoLevelSource:
		return s.Store.Primary()
	}
	return nil
}

// dirHeight is the directory levels read by one keyed probe: zero for
// heap and hash (the hash directory lives in memory), the index height
// for ISAM and B-tree files.
func dirHeight(h *relHandle) float64 {
	switch f := primaryFile(h).(type) {
	case *isam.File:
		return float64(f.Meta().Height)
	case *btree.File:
		return float64(f.Height())
	}
	return 0
}

// isamDirPages counts the directory pages of an ISAM file (the levels
// above the data pages, each one Fanout-compressed).
func isamDirPages(m isam.Meta) float64 {
	dir, n := 0, m.DataPages
	for n > 1 {
		n = (n + isam.Fanout - 1) / isam.Fanout
		dir += n
	}
	if dir == 0 {
		dir = 1 // a single data page still has a root directory page
	}
	return float64(dir)
}

// probePagesFor estimates the pages one keyed probe reads, from the
// file's physical grain: a hash probe reads the key's whole bucket chain
// (the primary page plus its overflow, shared with every key hashing
// there), an ISAM probe descends the directory and reads the base page
// plus its overflow chain, and a B-tree probe descends to the key's
// contiguous versions. chain is the key's stored version count and rpp
// the relation's mean versions per page.
func probePagesFor(h *relHandle, live, chain, rpp float64) float64 {
	switch f := primaryFile(h).(type) {
	case *hashfile.File:
		if p := float64(f.Meta().Primary); p > 0 {
			return math.Max(live/p, 1)
		}
	case *isam.File:
		m := f.Meta()
		if d := float64(m.DataPages); d > 0 {
			dir := isamDirPages(m)
			return float64(m.Height) + math.Max((live-dir)/d, 1)
		}
	case *btree.File:
		return float64(f.Height()) + math.Max(math.Ceil(chain/rpp), 1)
	}
	return math.Max(math.Ceil(chain/rpp), 1)
}

// statInputs fills the statistics-derived fields of a VarInfo. Without
// statistics it leaves HasStats false and the planner's heuristic order
// stands.
func statInputs(qv *qvar, info *plan.VarInfo) {
	st := qv.h.desc.Stat
	if st == nil {
		return
	}
	info.HasStats = true
	versions := float64(st.Versions)
	live := math.Max(float64(info.Pages), 1)
	rpp := math.Max(versions/live, 1) // stored versions per page
	height := dirHeight(qv.h)
	chainPages := func(n float64) float64 { return math.Max(math.Ceil(n/rpp), 1) }

	// Output rows are path-independent — every access path applies the
	// same residual predicates — so one estimate serves all candidates:
	// the most informative structural restriction, discounted by a flat
	// 1/10 per unfolded scalar conjunct.
	base := versions
	if qv.currentOnly {
		base = float64(st.Current)
	}
	curFrac := 1.0
	if st.Versions > 0 {
		curFrac = float64(st.Current) / versions
	}
	folded := 0
	rows := base
	var probeChain float64 // all stored versions under the key constant
	switch {
	case qv.keyConst != nil:
		folded++
		probeChain = float64(st.ChainLen(qv.keyConst.AsInt()))
		rows = probeChain
		if qv.currentOnly {
			rows = math.Min(probeChain, 1)
		}
	case qv.hasLo || qv.hasHi:
		if qv.hasLo {
			folded++
		}
		if qv.hasHi {
			folded++
		}
		chains, vers := st.ChainRange(qv.keyBounds())
		rows = float64(vers)
		if qv.currentOnly {
			rows = float64(chains)
		}
	case qv.idxName != "":
		folded++
		if ix, ok := st.Index(qv.idxName); ok && ix.Distinct > 0 {
			rows = float64(ix.Entries) / float64(ix.Distinct)
			if qv.currentOnly {
				rows = math.Max(rows*curFrac, 1)
			}
		}
	}
	if extra := len(qv.sel) - folded; extra > 0 {
		rows *= math.Pow(0.1, float64(extra))
	}

	// Sequential scan: the page count is exact; only rows are estimated.
	info.SeqRows, info.SeqPages = rows, live

	// Keyed probe: the file's physical probe grain (bucket chain, base
	// page chain, or B-tree descent). The key's chain length is exact —
	// the chain map is complete for analyzed keyed relations.
	if info.HasKeyConst && info.Keyed {
		info.ProbeRows = rows
		info.ProbePages = probePagesFor(qv.h, live, probeChain, rpp)
	}

	// Range probe: directory descent plus the data pages holding the
	// versions of the in-range chains.
	if (info.HasLo || info.HasHi) && info.Ordered {
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if info.HasLo {
			lo = info.KeyLo
		}
		if info.HasHi {
			hi = info.KeyHi
		}
		_, vers := st.ChainRange(lo, hi)
		info.RangeRows = rows
		info.RangePages = height + chainPages(float64(vers))
	}

	// Secondary index: entry pages touched plus one data fetch per
	// matching entry. A hash-structured index reads one bucket chain; a
	// heap-structured one scans all its entry pages. Two-level indexes
	// restricted to current versions fetch only the current matches.
	if info.IdxName != "" {
		if ix, ok := st.Index(qv.idxName); ok && ix.Distinct > 0 {
			match := float64(ix.Entries) / float64(ix.Distinct)
			idxAccess := float64(ix.Pages)
			if info.IdxStructure == "hash" {
				idxAccess = math.Max(float64(ix.Pages)/float64(ix.Distinct), 1)
			}
			fetches := match
			if qv.currentOnly && info.IdxLevels == 2 {
				fetches = math.Max(match*curFrac, 1)
			}
			info.IdxRows = rows
			info.IdxPages = idxAccess + fetches
		} else {
			// Index built after the last ANALYZE: no selectivity yet.
			info.IdxRows = rows
			info.IdxPages = live
		}
	}

	// Substitution probe: one keyed probe at the mean chain length.
	mean := st.MeanChain()
	info.SubstRows = mean
	if qv.currentOnly {
		info.SubstRows = 1
	}
	info.SubstPages = probePagesFor(qv.h, live, mean, rpp)
}
