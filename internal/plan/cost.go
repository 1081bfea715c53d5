package plan

import "fmt"

// This file is the cost model: once a relation has been ANALYZEd, the
// access-path decision stops being the fixed heuristic order of Leaf and
// becomes a comparison of estimated page reads. The estimates themselves
// (rows and pages per candidate path) arrive pre-computed in VarInfo —
// derived from the catalog statistics and the storage geometry by the
// caller — so the planner compares costs without touching storage.
//
// Cost formulas (documented in DESIGN.md, computed by internal/core):
//
//	sequential scan: pages = relation pages (exact)
//	                 rows  = versions (or currents), times restriction
//	                         selectivity
//	keyed probe:     pages = directory height + ceil(chain / rows-per-page)
//	                 rows  = the key's chain length (exact from the chain
//	                         map; the mean chain when unknown)
//	index access:    pages = index pages touched + one data fetch per
//	                         matching entry (entries / distinct keys)
//	range probe:     pages = height + ceil(range versions / rows-per-page)
//	                 rows  = chains (current) or versions in [lo, hi]
//
// Ties break toward the heuristic order (probe, index, range, scan), so
// statistics never flip a decision they cannot improve.

// pathChoice is one candidate access path with its estimated cost.
type pathChoice struct {
	op    Op
	rows  float64
	pages float64
	pref  int // heuristic order, for ties
}

// candidatePaths lists the access paths available to one variable. The
// availability conditions mirror Leaf's heuristic cases exactly; only the
// selection among them differs.
func candidatePaths(v VarInfo) []pathChoice {
	cands := []pathChoice{{op: OpSeqScan, rows: v.SeqRows, pages: v.SeqPages, pref: 3}}
	if v.HasKeyConst && v.Keyed {
		cands = append(cands, pathChoice{op: OpProbe, rows: v.ProbeRows, pages: v.ProbePages, pref: 0})
	}
	if v.IdxName != "" {
		cands = append(cands, pathChoice{op: OpIndexScan, rows: v.IdxRows, pages: v.IdxPages, pref: 1})
	}
	if (v.HasLo || v.HasHi) && v.Ordered {
		cands = append(cands, pathChoice{op: OpRangeScan, rows: v.RangeRows, pages: v.RangePages, pref: 2})
	}
	return cands
}

// bestPath picks the cheapest access path by estimated pages, breaking
// ties by estimated rows and then by the heuristic preference order.
func bestPath(v VarInfo) pathChoice {
	cands := candidatePaths(v)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.pages < best.pages ||
			(c.pages == best.pages && c.rows < best.rows) ||
			(c.pages == best.pages && c.rows == best.rows && c.pref < best.pref) {
			best = c
		}
	}
	return best
}

// leafDetail renders the access-path description for an op chosen either
// by the heuristic or by cost.
func leafDetail(v *VarInfo, op Op) string {
	switch op {
	case OpProbe:
		return fmt.Sprintf("%s, %s = %s", probeKind(v.Method), v.KeyAttr, v.KeyConst)
	case OpIndexScan:
		return fmt.Sprintf("secondary index %s (%d-level %s) on %s = %d",
			v.IdxName, v.IdxLevels, v.IdxStructure, v.IdxAttr, v.IdxConst)
	case OpRangeScan:
		return fmt.Sprintf("range probe, %s in [%s, %s]", v.KeyAttr,
			bound(v.HasLo, v.KeyLo, "-inf"), bound(v.HasHi, v.KeyHi, "+inf"))
	}
	return "sequential scan"
}

// substCost estimates a tuple-substitution join driven by one conjunct:
// the detached side's output rows times the probe side's per-probe pages.
// Both sides need statistics; the caller falls back to the hash-preference
// heuristic otherwise.
func substCost(outer, inner VarInfo) float64 {
	return bestPath(outer).rows * inner.SubstPages
}
