package tdbms_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tdbms"
)

// selfJoin is a nested-loop self-join over a four-page relation: under one
// frame per relation every outer tuple rescans the inner side from disk,
// while a pool of eight frames keeps the whole relation resident.
const selfJoin = `retrieve (e.id) where e.v = f.id and f.v < 20`

// openSelfJoin opens a database under opts holding the 150-row interval
// relation selfJoin reads, with e and f bound in the default session.
func openSelfJoin(t *testing.T, opts tdbms.Options) *tdbms.DB {
	t.Helper()
	opts.Now = time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC)
	db := tdbms.MustOpen(opts)
	var src strings.Builder
	src.WriteString("create interval r (id = i4, v = i4, name = c4)\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&src, "append to r (id = %d, v = %d, name = \"n%d\")\n", i, 149-i, i)
	}
	src.WriteString("range of e is r\nrange of f is r")
	if _, err := db.Exec(src.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// coldJoin runs selfJoin from the default session on invalidated buffers
// and returns the pages it read.
func coldJoin(t *testing.T, db *tdbms.DB) int64 {
	t.Helper()
	if err := db.InvalidateBuffers(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(selfJoin)
	if err != nil {
		t.Fatal(err)
	}
	return res.InputPages
}

// TestOneDatabaseOnePolicy pins that the buffer policy is the database's:
// what another session runs cannot widen the pools the default session
// reads through, and pooling comes only from Options.
func TestOneDatabaseOnePolicy(t *testing.T) {
	db := openSelfJoin(t, tdbms.Options{})
	defer db.Close()
	before := coldJoin(t, db)

	s := db.Session("other")
	if _, err := s.Exec("range of e is r\nrange of f is r"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Exec(selfJoin); err != nil {
			t.Fatal(err)
		}
	}
	if after := coldJoin(t, db); after != before {
		t.Fatalf("cold self-join read %d pages after another session ran, %d before", after, before)
	}

	pooled := openSelfJoin(t, tdbms.Options{BufferFrames: 8})
	defer pooled.Close()
	got := coldJoin(t, pooled)
	if got >= before {
		t.Fatalf("cold self-join on an 8-frame database read %d pages, want fewer than the single-frame %d", got, before)
	}
	t.Logf("cold self-join: %d pages under one frame, %d under eight", before, got)
}
