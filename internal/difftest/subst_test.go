package difftest

import (
	"runtime"
	"sync"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// TestConcurrentSubstitutionJoins runs the paper cell's two joins in two
// sessions, each probing its inner relation on several goroutines, while a
// third session runs keyed lookups of both relations, the joins' inner
// relations among them. Every answer must be the recorded one.
func TestConcurrentSubstitutionJoins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const typ, rounds = bench.Temporal, 6
	b, err := BuildMethod(typ, "paper", configUC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{}
	for _, q := range bench.Queries(typ) {
		texts[q.ID] = q.Text
	}
	golden.mu.Lock()
	err = loadGolden()
	want := golden.want
	golden.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	cell := "matrix/" + string(typ) + "/paper"
	sessions := [][]string{{"Q09"}, {"Q10"}, {"Q05", "Q06", "Q01", "Q02"}}
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions)*rounds*4)
	for n, ids := range sessions {
		c, err := SessionFor(b, "subst"+string(rune('a'+n)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					res, err := c.Exec(texts[id])
					if err != nil {
						errs <- err
						return
					}
					if got, w := answerSum(Canon(res.Rows)), want[cell+" "+id]; got != w {
						t.Errorf("%s round %d: answer %s, recorded %s", id, r, got, w)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
