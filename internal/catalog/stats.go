package catalog

// Stats holds per-relation optimizer statistics: version and current
// counts, page count, the version-chain length distribution (the paper's
// update count, UC, is chain length minus one), and per-index
// selectivities. Statistics live in memory only — they are rebuilt by an
// ANALYZE statement (and vanish on reopen until the next one, like
// secondary indexes) and maintained incrementally by DML between rebuilds.
//
// Mutation discipline: the exported counter fields and the Note* methods
// are written only from internal/catalog and internal/core, under the
// relation's latch (exclusive for writers; readers hold at least the
// shared latch). The tdbvet layering check enforces the package half of
// that contract — internal/exec and internal/plan read estimates, never
// stats.
type Stats struct {
	Versions int64 // stored versions, history included
	Current  int64 // versions open in transaction time (and valid time)
	Pages    int64 // relation pages at the last rebuild

	// chains maps a version-chain key to the chain's stored length.
	// Relations whose chains cannot be keyed (no key-shaped attribute)
	// leave it empty.
	chains map[int64]int64

	// indexes holds per-secondary-index selectivity, rebuilt by ANALYZE
	// (not maintained incrementally; a rebuild refreshes it).
	indexes map[string]IndexStats
}

// IndexStats summarizes one secondary index for the planner.
type IndexStats struct {
	Entries  int64 // indexed versions
	Distinct int64 // distinct indexed keys
	Pages    int64 // entry-file pages at the last rebuild
}

// NewStats returns empty statistics, ready to be filled by a rebuild.
func NewStats() *Stats {
	return &Stats{chains: make(map[int64]int64), indexes: make(map[string]IndexStats)}
}

// NoteInsert records a fresh current version entering the relation.
func (s *Stats) NoteInsert(key int64, keyed bool) {
	s.Versions++
	s.Current++
	if keyed {
		s.chains[key]++
	}
}

// NoteRemove records a version removed outright (static and
// historical-event delete semantics).
func (s *Stats) NoteRemove(key int64, keyed bool) {
	s.Versions--
	s.Current--
	if keyed {
		if s.chains[key] <= 1 {
			delete(s.chains, key)
		} else {
			s.chains[key]--
		}
	}
}

// NoteClose records a current version closed into history: the version
// stays stored, so only the current count moves.
func (s *Stats) NoteClose() { s.Current-- }

// NoteHistoryInsert records a history version appended without touching
// the current count (the temporal delete's valid-to marker).
func (s *Stats) NoteHistoryInsert(key int64, keyed bool) {
	s.Versions++
	if keyed {
		s.chains[key]++
	}
}

// NoteReplaceImage records an in-place overwrite: counts are unchanged,
// but the version moves chains when the image's chain key changed.
func (s *Stats) NoteReplaceImage(oldKey, newKey int64, keyed bool) {
	if !keyed || oldKey == newKey {
		return
	}
	if s.chains[oldKey] <= 1 {
		delete(s.chains, oldKey)
	} else {
		s.chains[oldKey]--
	}
	s.chains[newKey]++
}

// SetIndex records one index's selectivity during a rebuild.
func (s *Stats) SetIndex(name string, ix IndexStats) { s.indexes[name] = ix }

// Index returns one index's selectivity, if the last rebuild saw it.
func (s *Stats) Index(name string) (IndexStats, bool) {
	ix, ok := s.indexes[name]
	return ix, ok
}

// Chains is the number of distinct version chains.
func (s *Stats) Chains() int64 { return int64(len(s.chains)) }

// ChainLen returns the stored length of one version chain (zero when the
// chain is unknown, which also covers unkeyed relations).
func (s *Stats) ChainLen(key int64) int64 { return s.chains[key] }

// ChainRange counts the chains whose key falls within [lo, hi] and sums
// their stored versions — the planner's range-probe selectivity.
func (s *Stats) ChainRange(lo, hi int64) (chains, versions int64) {
	for k, n := range s.chains {
		if k >= lo && k <= hi {
			chains++
			versions += n
		}
	}
	return chains, versions
}

// ChainLens returns a copy of the chain-length map (diagnostics, tests).
func (s *Stats) ChainLens() map[int64]int64 {
	m := make(map[int64]int64, len(s.chains))
	for k, v := range s.chains {
		m[k] = v
	}
	return m
}

// MeanChain is the mean version-chain length — one plus the paper's mean
// update count. Unkeyed relations fall back to versions over currents.
func (s *Stats) MeanChain() float64 {
	if len(s.chains) > 0 {
		return float64(s.Versions) / float64(len(s.chains))
	}
	if s.Current > 0 {
		return float64(s.Versions) / float64(s.Current)
	}
	if s.Versions > 0 {
		return float64(s.Versions)
	}
	return 1
}

// ChainHistogram buckets chain lengths by floor(log2): bucket 0 counts
// chains of length 1, bucket 1 lengths 2..3, bucket 2 lengths 4..7, and
// so on — the version-chain length (update count) distribution.
func (s *Stats) ChainHistogram() []int64 {
	var hist []int64
	for _, n := range s.chains {
		b := 0
		for v := n; v > 1; v >>= 1 {
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}
