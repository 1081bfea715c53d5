package bench

import (
	"strconv"
	"testing"
)

// TestBuildScaledKeepsConstants checks the scaled generator preserves the
// Figure 4 selectivities: the amount constants still select exactly one
// tuple each at larger cardinalities.
func TestBuildScaledKeepsConstants(t *testing.T) {
	b, err := BuildScaled(Static, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, amt := range []int{69400, 73700} {
		res, err := b.Inner.Exec("retrieve (h.id) where h.amount = " + strconv.Itoa(amt))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("amount %d selects %d tuples, want 1", amt, len(res.Rows))
		}
	}
	res, err := b.Inner.Exec("retrieve (h.id) where h.id = " + strconv.Itoa(3*NumTuples))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("max id selects %d tuples, want 1", len(res.Rows))
	}
}
