package suite_test

import (
	"strings"
	"testing"

	"tdbms/internal/analysis/suite"
)

// violatingModule lays out a module with diagnostics in several packages
// and a lock-order cycle whose two halves sit in two packages.
func violatingModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/a/a.go": `package a

import "os"

func A() { os.Remove("x") }
`,
		"internal/c/c.go": `package c

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Bad(x bool) {
	s.mu.Lock()
	if x {
		return
	}
	s.mu.Unlock()
}
`,
		"internal/lock/lock.go": `package lock

import (
	"os"
	"sync"
)

type Conn struct{ mu sync.Mutex }

type Database struct{ rw sync.RWMutex }

// Backward takes db.rw before conn.mu.
func Backward(c *Conn, db *Database) {
	db.rw.Lock()
	defer db.rw.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
}

func Drop() { os.Remove("z") }
`,
		"internal/app/app.go": `package app

import (
	"errors"
	"fmt"
	"sync"

	"fixturemod/internal/lock"
)

type Conn struct{ mu sync.Mutex }

type Database struct{ rw sync.RWMutex }

// Forward takes conn.mu before db.rw, the inverse of lock.Backward.
func Forward(c *Conn, db *Database) {
	c.mu.Lock()
	defer c.mu.Unlock()
	db.rw.Lock()
	defer db.rw.Unlock()
	lock.Backward(nil, nil)
}

func Wrap() error {
	if err := errors.New("broken"); err != nil {
		return fmt.Errorf("app: %v", err)
	}
	return nil
}
`,
	})
}

// TestCrossPackageFacts: a restricted pattern still analyzes the module
// packages its targets import, so the lock-order graph holds the facts of
// both halves of a cycle; but only targets contribute Run diagnostics
// (lock.go's discarded error and c.go's leaked lock stay silent).
func TestCrossPackageFacts(t *testing.T) {
	dir := violatingModule(t)
	diags, err := suite.Run(dir, []string{"./internal/app"})
	if err != nil {
		t.Fatal(err)
	}
	var cycles, wraps int
	for _, d := range diags {
		switch {
		case d.Check == "latchorder" && strings.Contains(d.Message, "latch order cycle"):
			cycles++
		case d.Check == "errwrap" && strings.HasSuffix(d.Position.Filename, "app.go"):
			wraps++
		default:
			t.Errorf("unexpected diagnostic outside the target's rules: %s", d)
		}
	}
	if cycles != 2 || wraps != 1 {
		t.Errorf("got %d cycle and %d errwrap diagnostics, want 2 and 1:\n%v", cycles, wraps, diags)
	}

	// The whole module adds the other packages' Run diagnostics.
	all, err := suite.Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(diags)+3 {
		t.Errorf("whole-module run: got %d diagnostics, want %d:\n%v", len(all), len(diags)+3, all)
	}
}

// TestMultipleFailingPackages: every unloadable package is reported, one
// line each, sorted by path — not just the first failure.
func TestMultipleFailingPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": gomod,
		"internal/bad1/bad1.go": `package bad1

func broken( {
`,
		"internal/bad2/bad2.go": `package bad2

var x int = "not an int"
`,
		"internal/good/good.go": `package good

func Fine() {}
`,
	})
	_, err := suite.Run(dir, nil)
	if err == nil {
		t.Fatal("want a load error, got none")
	}
	msg := err.Error()
	i1 := strings.Index(msg, "bad1")
	i2 := strings.Index(msg, "bad2")
	if i1 < 0 || i2 < 0 {
		t.Fatalf("error should mention both failing packages:\n%s", msg)
	}
	if i1 > i2 {
		t.Errorf("failures should be sorted by path (bad1 before bad2):\n%s", msg)
	}
	if got := len(strings.Split(strings.TrimSpace(msg), "\n")); got < 2 {
		t.Errorf("want one line per failing package, got %d line(s):\n%s", got, msg)
	}
}
