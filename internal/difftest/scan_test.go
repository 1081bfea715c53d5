package difftest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// TestConcurrentParallelScans runs the paper cell's scans Q03 and Q07 in
// two sessions, each walking its relation in morsels on several
// goroutines, while a third session runs keyed lookups of both scanned
// relations and a fourth writes another relation. Every answer must be the
// recorded one.
func TestConcurrentParallelScans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const typ, rounds = bench.Temporal, 6
	b, err := BuildMethod(typ, "paper", configUC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Inner.Exec(`create w (k = i4, v = i4)
	                           range of w is w`); err != nil {
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
	readers := [][]string{{"Q03"}, {"Q07"}, {"Q05", "Q06", "Q01", "Q02"}}
	var wg sync.WaitGroup
	errs := make(chan error, len(readers)+1)
	for n, ids := range readers {
		c, err := SessionFor(b, "scan"+string(rune('a'+n)))
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
	writer := b.Inner.NewSession("writer")
	if _, err := writer.Exec(`range of w is w`); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40; k++ {
			if _, err := writer.Exec(fmt.Sprintf(`append to w (k = %d, v = 0)
			                                      replace w (v = w.v + 1) where w.k = %d`, k, k/2)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
