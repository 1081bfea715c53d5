package bench

import (
	"fmt"

	"tdbms/internal/core"
)

// BuildScaled is Build with the relation cardinality scaled to
// scale*NumTuples. The workload generator is the same deterministic
// stream, just drawn longer; ids run 1..n and amounts are a permutation
// of {0, 100, ..., (n-1)*100}, so the Figure 4 constants keep selecting
// exactly one tuple.
func BuildScaled(t DBType, loading, scale int) (*DB, error) {
	if scale < 1 {
		return nil, fmt.Errorf("bench: scale must be >= 1, got %d", scale)
	}
	inner, err := core.Open(core.Options{Now: loadTime})
	if err != nil {
		return nil, err
	}
	b := &DB{
		Type:    t,
		Loading: loading,
		Inner:   inner,
		H:       string(t) + "_h",
		I:       string(t) + "_i",
	}
	if err := loadIntoN(b, scale*NumTuples); err != nil {
		return nil, err
	}
	return b, nil
}
