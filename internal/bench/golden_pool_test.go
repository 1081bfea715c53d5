package bench

import (
	"path/filepath"
	"testing"

	"tdbms/internal/core"
)

// poolGoldenOpts is the pooled buffer policy the second golden file pins:
// 32 frames per relation with up to 4 pages of scan readahead.
var poolGoldenOpts = core.Options{BufferFrames: 32, BufferReadahead: 4}

// TestGoldenFiguresPooled regenerates Figures 5-10 under the pooled buffer
// policy and pins them to their own golden file. Together with
// TestGoldenFigures this proves the pool changes the page counts (the
// fixtures differ) without changing a single answer (checked tuple-by-tuple
// by TestPooledRowsMatchDefault below and by the difftest matrix).
func TestGoldenFiguresPooled(t *testing.T) {
	got := renderFiguresOpts(t, 0, poolGoldenOpts)
	compareGolden(t, got, filepath.Join("testdata", "figures_pooled.golden"))
}

// TestPooledRowsMatchDefault measures every benchmark database under the
// default single-frame policy and under the pool, and requires identical
// result-row counts for every query at every update count — while at least
// one query must differ in read operations, proving the pool actually
// engaged.
func TestPooledRowsMatchDefault(t *testing.T) {
	def, err := AllSeries(goldenUC, 0, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := AllSeries(goldenUC, 0, poolGoldenOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	opsDiffer := false
	for _, k := range AllKeys() {
		d, p := def[k], pooled[k]
		for _, id := range QueryIDs {
			for uc := 0; uc <= goldenUC; uc++ {
				dm, pm := d.Cost[id][uc], p.Cost[id][uc]
				if dm.Applies != pm.Applies || dm.Rows != pm.Rows {
					t.Errorf("%s/%d%% %s uc=%d: rows %d (default) vs %d (pooled)",
						k.T, k.L, id, uc, dm.Rows, pm.Rows)
				}
				if dm.Ops != pm.Ops {
					opsDiffer = true
				}
			}
		}
	}
	if !opsDiffer {
		t.Error("pooled policy never changed a read-operation count; the pool did not engage")
	}
}
