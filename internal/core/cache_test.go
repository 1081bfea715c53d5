package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The statement cache's adversarial tests. Each case runs a statement cold
// on a session, changes what the case changes, and runs a statement of the
// same shape warm on the same session. The warm result — rows, Affected,
// Input, InputOps, Output, or the error — must equal the same statement's
// on a fresh session of a second database that was built, run cold and
// changed identically, so both databases' buffers hold the same pages when
// the statements being compared run.

// cacheDB builds the relations the cases run against: r, a temporal
// relation of 64 keys hashed on id with a two-valued attribute g, each key
// replaced twice an hour apart, and r2, a smaller static relation. "now"
// is 03:00:00 1/1/1980; as of 01:30 the first replace is visible.
func cacheDB(t *testing.T) *Database {
	t.Helper()
	db := newDB(t)
	mustExec(t, db, `create persistent interval r (id = i4, v = i4, g = i4, name = c8)
	                 create r2 (id = i4, v = i4, g = i4, name = c8)`)
	for k := 1; k <= 64; k++ {
		mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = %d, g = %d, name = "n%d")`, k, 10*k, k%2, k))
		if k <= 16 {
			mustExec(t, db, fmt.Sprintf(`append to r2 (id = %d, v = %d, g = 0, name = "m%d")`, k, -k, k))
		}
	}
	mustExec(t, db, `modify r to hash on id where fillfactor = 100
	                 range of x is r`)
	for round := 0; round < 2; round++ {
		db.Clock().Advance(3600)
		mustExec(t, db, `replace x (v = x.v + 1)`)
	}
	db.Clock().Advance(3600)
	return db
}

// cacheCase is one cold run, one change, one warm run.
type cacheCase struct {
	name       string
	setup      func(t *testing.T, db *Database) // after cacheDB, on both databases
	before     func(c *Conn)                    // on the session, before the cold run
	cold, warm string
	db         func(t *testing.T, db *Database) // between the runs, on both databases
	sess       func(c *Conn)                    // between the runs on the warm session; on the fresh one
	hit        bool                             // the warm run must find the cold run's entry
}

const asOf130 = `"01:30 1/1/1980"`

func TestStatementCacheAdversarial(t *testing.T) {
	exec := func(stmts ...string) func(t *testing.T, db *Database) {
		return func(t *testing.T, db *Database) {
			for _, s := range stmts {
				mustExec(t, db, s)
			}
		}
	}
	setNow := func(c *Conn) { c.SetNow(epoch + 90*60) }
	const probe = `retrieve (x.id, x.v) where x.id = 3 when x overlap "now"`
	cases := []cacheCase{
		{name: "key", cold: probe, warm: strings.Replace(probe, "= 3", "= 17", 1), hit: true},
		{name: "modify-isam", cold: probe, warm: probe, db: exec(`modify r to isam on id`)},
		{name: "modify-btree", cold: probe, warm: probe, db: exec(`modify r to btree on id`)},
		{name: "modify-hash", setup: exec(`modify r to heap`), cold: probe, warm: probe,
			db: exec(`modify r to hash on id`)},
		{name: "index", cold: `retrieve (x.id, x.v) where x.v = 301`, warm: `retrieve (x.id, x.v) where x.v = 301`,
			db: exec(`index on r is r_v (v) with structure = hash`)},
		{name: "recreate", cold: `retrieve (x.id, x.v) where x.id = 3`, warm: `retrieve (x.id, x.v) where x.id = 3`,
			db: exec(`destroy r`, `create r (name = c4, v = i2, id = i4, g = i1)`,
				`append to r (name = "z", v = 7, id = 3, g = 1)`, `append to r (name = "y", v = 8, id = 4, g = 0)`)},
		{name: "range", cold: `retrieve (x.id, x.v) where x.id = 3`, warm: `retrieve (x.id, x.v) where x.id = 3`,
			sess: func(c *Conn) { mustSess(c, `range of x is r2`) }},
		{name: "analyze-range-to-seq", setup: exec(`modify r to isam on id`),
			cold: `retrieve (x.id) where x.id > 0`, warm: `retrieve (x.id) where x.id > 0`, db: exec(`analyze r`)},
		{name: "analyze-index-to-seq", setup: exec(`index on r is r_g (g)`),
			cold: `retrieve (x.id) where x.g = 1`, warm: `retrieve (x.id) where x.g = 1`, db: exec(`analyze r`)},
		{name: "value-range-to-seq", setup: exec(`modify r to isam on id`, `analyze r`),
			cold: `retrieve (x.id) where x.id > 60`, warm: `retrieve (x.id) where x.id > 0`, hit: true},
		{name: "setnow-now", cold: probe, warm: probe, sess: setNow, hit: true},
		{name: "setnow-asof", cold: `retrieve (x.id, x.v) where x.id = 3 as of ` + asOf130,
			warm: `retrieve (x.id, x.v) where x.id = 3 as of ` + asOf130, sess: setNow, hit: true},
		{name: "clearnow-now", before: setNow, cold: probe, warm: probe,
			sess: func(c *Conn) { c.ClearNow() }, hit: true},
		{name: "clearnow-asof", before: setNow, cold: `retrieve (x.id, x.v) as of "now"`,
			warm: `retrieve (x.id, x.v) as of "now"`, sess: func(c *Conn) { c.ClearNow() }, hit: true},
		{name: "twolevel-asof-now", setup: twoLevel,
			cold: `retrieve (x.id, x.v) where x.id = 3 when x overlap "now" as of ` + asOf130,
			warm: `retrieve (x.id, x.v) where x.id = 3 when x overlap "now" as of "03:00:00 1/1/1980"`, hit: true},
		{name: "twolevel-now-asof", setup: twoLevel,
			cold: `retrieve (x.id, x.v) where x.id = 3 when x overlap "now" as of "03:00:00 1/1/1980"`,
			warm: `retrieve (x.id, x.v) where x.id = 3 when x overlap "now" as of ` + asOf130, hit: true},
		{name: "batch", cold: `retrieve (x.id, x.v) when x overlap "now"`, warm: `retrieve (x.id, x.v) when x overlap "now"`,
			sess: func(c *Conn) { c.SetBatchSize(1) }},
		{name: "kind", cold: `retrieve (x.id, x.v) where x.id = 3`, warm: `retrieve (x.id, x.v) where x.id = 3.5`},
		{name: "char-length", cold: `retrieve (x.id) where x.name = "n3"`, warm: `retrieve (x.id) where x.name = "n17"`, hit: true},
		{name: "char-longer", cold: `retrieve (x.id) where x.name = "n3"`, warm: `retrieve (x.id) where x.name = "n3xxxxxxxx"`, hit: true},
		{name: "bind-error", cold: `retrieve (x.id) as of "01:00 1/1/1980" through "02:00 1/1/1980"`,
			warm: `retrieve (x.id) as of "02:00 1/1/1980" through "01:00 1/1/1980"`, hit: true},
		{name: "time-error", cold: `retrieve (x.id) where x.id = 3 when x overlap ` + asOf130,
			warm: `retrieve (x.id) where x.id = 3 when x overlap "not a time"`, hit: true},
	}
	for _, cc := range cases {
		t.Run(cc.name, func(t *testing.T) { runCacheCase(t, cc) })
	}
}

// twoLevel moves r to the two-level store of Section 6.
func twoLevel(t *testing.T, db *Database) {
	t.Helper()
	if err := db.EnableTwoLevel("r", false); err != nil {
		t.Fatal(err)
	}
}

func mustSess(c *Conn, src string) {
	if _, err := c.Exec(src); err != nil {
		panic(fmt.Sprintf("%s: %v", src, err))
	}
}

// outcome renders what a statement produced, for comparison.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("cols=%v rows=%v affected=%d input=%d inputops=%d output=%d",
		res.Cols, res.Rows, res.Affected, res.Input, res.InputOps, res.Output)
}

func runCacheCase(t *testing.T, cc cacheCase) {
	build := func() *Database {
		db := cacheDB(t)
		if cc.setup != nil {
			cc.setup(t, db)
		}
		return db
	}
	session := func(db *Database, name string) *Conn {
		c := db.NewSession(name)
		mustSess(c, `range of x is r`)
		return c
	}
	a, b := build(), build()
	w, s1 := session(a, "warm"), session(b, "cold")
	if cc.before != nil {
		cc.before(w)
		cc.before(s1)
	}
	if got, want := outcome(w.Exec(cc.cold)), outcome(s1.Exec(cc.cold)); got != want {
		t.Fatalf("cold runs differ\n got: %s\nwant: %s", got, want)
	}
	if cc.db != nil {
		cc.db(t, a)
		cc.db(t, b)
	}
	if cc.sess != nil {
		cc.sess(w)
	}
	got := outcome(w.Exec(cc.warm))
	if cc.hit && w.cache.hit == nil {
		t.Errorf("the warm run missed the cache")
	}
	fresh := session(b, "fresh")
	if cc.sess != nil {
		cc.sess(fresh)
	}
	want := outcome(fresh.Exec(cc.warm))
	if got != want {
		t.Errorf("%s after %s:\nwarm:  %s\nfresh: %s", cc.warm, cc.cold, got, want)
	}
}

// TestStatementCacheExplain holds a plan rendered from the cache to the
// plan of the same statement prepared afresh — access paths, measured
// pages, estimates and relation sizes — including after appends have grown
// the relation since the entry was prepared.
func TestStatementCacheExplain(t *testing.T) {
	for _, analyzed := range []bool{false, true} {
		a, b := cacheDB(t), cacheDB(t)
		if analyzed {
			mustExec(t, a, `analyze r`)
			mustExec(t, b, `analyze r`)
		}
		const q = `retrieve (x.id, x.v) where x.id = 5 when x overlap "now" as of "now"`
		w := a.DefaultSession()
		kept := len(w.cache.m) // cacheDB's replace rounds
		mustExec(t, a, q)
		mustExec(t, b, q)
		for k := 65; k <= 160; k++ {
			s := fmt.Sprintf(`append to r (id = %d, v = 0, g = 0, name = "a")`, k)
			mustExec(t, a, s)
			mustExec(t, b, s)
		}
		warm := strings.Replace(q, "= 5", "= 9", 1)
		mustExec(t, a, warm) // hit, rebound
		if w.cache.hit == nil {
			t.Fatal("warm run missed the cache")
		}
		mustExec(t, b, warm)
		got, err := w.Explain(warm)
		if err != nil {
			t.Fatal(err)
		}
		fresh := b.NewSession("fresh")
		mustSess(fresh, `range of x is r`)
		want, err := fresh.Explain(warm)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("analyzed=%v: cached plan renders differently\nwarm:\n%s\nfresh:\n%s", analyzed, got, want)
		}
		// The rendered tree is the caller's: the entry went with it.
		if len(w.cache.m) != kept {
			t.Errorf("QueryPlan left %d entries behind", len(w.cache.m)-kept)
		}
	}
}

// TestStatementCacheAfterOtherWriter drives a replace whose cached
// candidate scan runs after another session moved the same chain: the warm
// entry must select the version the other writer left, exactly as a fresh
// session's cold scan does.
func TestStatementCacheAfterOtherWriter(t *testing.T) {
	var outs [2]string
	var final [2]int64
	for i, fresh := range []bool{false, true} {
		db := cacheDB(t)
		w := db.NewSession("writer")
		mustSess(w, `range of x is r`)
		mustSess(w, `replace x (v = x.v + 1) where x.id = 5`)
		other := db.NewSession("other")
		mustSess(other, `range of x is r`)
		mustSess(other, `replace x (v = x.v + 100) where x.id = 5`)
		if fresh {
			w = db.NewSession("fresh")
			mustSess(w, `range of x is r`)
		}
		res, err := w.Exec(`replace x (v = x.v + 1000) where x.id = 5`)
		outs[i] = outcome(res, err)
		if err != nil {
			t.Fatal(err)
		}
		cur := mustExec(t, db, `retrieve (x.v) where x.id = 5 when x overlap "now"`)
		if len(cur.Rows) != 1 {
			t.Fatalf("%d current versions of key 5", len(cur.Rows))
		}
		final[i] = cur.Rows[0][0].I
		if err := db.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("cached replace differs from a fresh session's\nwarm:  %s\nfresh: %s", outs[0], outs[1])
	}
	// 52 after set-up, then +1, +100 and +1000.
	if final[0] != 1153 || final[1] != 1153 {
		t.Errorf("v = %d (cached) and %d (fresh), want 1153", final[0], final[1])
	}
}

// TestStatementCacheKeepsOnlyPrepared checks what enters the cache: a
// statement that fails analysis never does, nor does a retrieve into or an
// append's embedded query, and the cache stays bounded.
func TestStatementCacheKeepsOnlyPrepared(t *testing.T) {
	db := cacheDB(t)
	c := db.DefaultSession()
	kept := len(c.cache.m) // cacheDB's replace rounds
	for _, bad := range []string{
		`retrieve (x.nope)`,
		`retrieve (y.id)`,
		`retrieve (x.id) as of "now" through ` + asOf130,
		`retrieve (x.id) as of "not a time"`,
		`retrieve (n = count(x.id by x.g), x.id)`,
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Fatalf("%s succeeded", bad)
		}
		if len(c.cache.m) != kept {
			t.Fatalf("%s left an entry", bad)
		}
	}
	mustExec(t, db, `append to r2 (id = x.id, v = x.v, g = 0, name = "c") where x.id = 7
	                 retrieve (n = count(x.id by x.g), g = x.g)`)
	if len(c.cache.m) != kept {
		t.Fatalf("%d entries after uncacheable statements", len(c.cache.m)-kept)
	}
	mustExec(t, db, `retrieve into r3 (x.id, x.v) where x.id < 4`)
	if len(c.cache.m) != kept {
		t.Fatalf("%d entries after a retrieve into", len(c.cache.m)-kept)
	}
	for k := 0; k < 2*stmtCacheSize; k++ {
		// Each target name makes another shape.
		res := mustExec(t, db, fmt.Sprintf(`retrieve (a%d = x.v) where x.id = %d when x overlap "now"`, k, k%64+1))
		if len(res.Rows) != 1 || res.Rows[0][0].I != int64(10*(k%64+1)+2) {
			t.Fatalf("shape %d: %v", k, res.Rows)
		}
		if len(c.cache.m) > stmtCacheSize {
			t.Fatalf("%d entries, bound %d", len(c.cache.m), stmtCacheSize)
		}
	}
}

// TestStatementCacheConcurrentSessions runs two sessions' cached lookups on
// one relation beside a writer (run it under -race): every lookup must see
// exactly one current version with a sequence number the writer has
// reached, and every as-of lookup the version of its instant.
func TestStatementCacheConcurrentSessions(t *testing.T) {
	db := cacheDB(t)
	const writes = 200
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := db.NewSession(fmt.Sprintf("reader-%d", r))
			if _, err := c.Exec(`range of x is r`); err != nil {
				errs <- err
				return
			}
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				id := n%64 + 1
				res, err := c.Exec(fmt.Sprintf(`retrieve (x.v) where x.id = %d when x overlap "now"`, id))
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I < int64(10*id+2)) {
					err = fmt.Errorf("current lookup of %d: %v", id, res.Rows)
				}
				if err == nil {
					res, err = c.Exec(fmt.Sprintf(`retrieve (x.v) where x.id = %d when x overlap %s as of %s`, id, asOf130, asOf130))
					if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I != int64(10*id+1)) {
						err = fmt.Errorf("as-of lookup of %d: %v", id, res.Rows)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		c := db.NewSession("writer")
		if _, err := c.Exec(`range of x is r`); err != nil {
			errs <- err
			return
		}
		for n := 0; n < writes; n++ {
			db.Clock().Advance(1)
			if _, err := c.Exec(fmt.Sprintf(`replace x (v = x.v + 1) where x.id = %d`, n%64+1)); err != nil {
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
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
