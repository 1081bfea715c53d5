// Command tquel is an interactive shell for the temporal DBMS, in the
// spirit of Ingres's terminal monitor. Statements are buffered until a
// terminator line and then executed:
//
//	tquel> create persistent interval emp (name = c20, salary = i4)
//	tquel> \g
//
// Terminators and commands:
//
//	\g (or a blank line)  execute the buffered statements
//	\p                    print the buffer
//	\plan                 run the buffered retrieve and show its executed
//	                      plan with per-operator page I/O (result discarded)
//	\r                    reset the buffer
//	\l                    list relations
//	\session [name]       show the current session, or switch to (creating
//	                      if needed) a named session with its own range
//	                      bindings and its own "now"
//	\sessions             list open sessions
//	\now [time]           show or set the current session's "now"; in the
//	                      default session this moves the shared clock, in a
//	                      named session it sets a private as-of override
//	\advance <seconds>    advance the session's "now" likewise
//	\set                  show the session's buffer policy (frames/readahead)
//	\set buffer <frames> [<readahead>]
//	                      override the session's buffer policy: queries run
//	                      with an LRU pool of <frames> frames per relation
//	                      and optional sequential-scan readahead
//	\set buffer default   drop the override, back to the database default
//	                      (one frame, no readahead: the paper's measurement
//	                      policy from Section 5.1)
//	\set wal sync|async|default
//	                      on a -wal database, override this session's commit
//	                      durability: sync waits for the group commit on
//	                      every write, async acknowledges without waiting (a
//	                      crash may lose the statement but never tears it),
//	                      default restores the database-wide policy
//	\cold                 invalidate buffers (next query runs cold)
//	\q                    quit
//
// Flags: -dir <path> opens a persistent database (reattaching whatever a
// previous run left there); -wal additionally commits through the
// write-ahead log, so a killed shell recovers every acknowledged write on
// the next open. A file argument executes a TQuel script instead of
// reading stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tdbms/internal/core"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

// shell holds the interactive state: one database and any number of named
// sessions, each with its own range table and as-of clock.
type shell struct {
	db       *core.Database
	sessions map[string]*core.Conn
	cur      *core.Conn
	curName  string
}

func newShell(db *core.Database) *shell {
	return &shell{
		db:       db,
		sessions: map[string]*core.Conn{"default": db.DefaultSession()},
		cur:      db.DefaultSession(),
		curName:  "default",
	}
}

// use switches to a named session, creating it on first mention.
func (sh *shell) use(name string) {
	if c, ok := sh.sessions[name]; ok {
		sh.cur, sh.curName = c, name
		return
	}
	c := sh.db.NewSession(name)
	sh.sessions[name] = c
	sh.cur, sh.curName = c, name
}

// now reports the current session's effective "now".
func (sh *shell) now() temporal.Time { return sh.cur.Now() }

// setNow moves the current session's "now": the default session owns the
// shared clock, a named session gets a private as-of override.
func (sh *shell) setNow(t temporal.Time) {
	if sh.curName == "default" {
		sh.db.Clock().Set(t)
		return
	}
	sh.cur.SetNow(t)
}

// set implements \set: with no argument it reports the current session's
// effective buffer policy; "buffer <frames> [<readahead>]" installs a
// session override and "buffer default" drops it. The policy itself is
// only ever constructed behind Conn — never here (tdbvet: layering).
func (sh *shell) set(arg string) error {
	fields := strings.Fields(arg)
	usage := fmt.Errorf(`usage: \set | \set buffer <frames> [<readahead>] | \set buffer default | \set wal sync|async|default`)
	switch {
	case len(fields) == 0:
		// fall through to the report below
	case fields[0] == "wal":
		return sh.setWAL(fields[1:])
	case fields[0] != "buffer":
		return usage
	case len(fields) == 2 && fields[1] == "default":
		sh.cur.ClearBufferPolicy()
	case len(fields) == 2 || len(fields) == 3:
		frames, err := strconv.Atoi(fields[1])
		if err != nil || frames < 1 {
			return fmt.Errorf("frames must be a positive integer")
		}
		ahead := 0
		if len(fields) == 3 {
			if ahead, err = strconv.Atoi(fields[2]); err != nil || ahead < 0 {
				return fmt.Errorf("readahead must be a non-negative integer")
			}
		}
		sh.cur.SetBufferPolicy(frames, ahead)
	default:
		return usage
	}
	pol := sh.cur.BufferPolicy()
	fmt.Printf("buffer: %d frame(s), readahead %d\n", pol.Frames, pol.Readahead)
	return nil
}

// setWAL implements \set wal: a per-session override of the commit
// durability policy on a logged database. "sync" waits for the group
// commit on every acknowledged write, "async" acknowledges without
// waiting (a crash may lose the statement but never tears it), "default"
// restores the database-wide Options.WALSyncPolicy.
func (sh *shell) setWAL(fields []string) error {
	if !sh.db.WALEnabled() {
		return fmt.Errorf("the database was opened without -wal; there is no log to sync")
	}
	if len(fields) != 1 {
		return fmt.Errorf(`usage: \set wal sync|async|default`)
	}
	switch fields[0] {
	case "sync":
		sh.cur.SetSyncCommit(true)
	case "async":
		sh.cur.SetSyncCommit(false)
	case "default":
		sh.cur.ClearSyncCommit()
	default:
		return fmt.Errorf(`usage: \set wal sync|async|default`)
	}
	fmt.Printf("wal commit: %s\n", fields[0])
	return nil
}

func main() {
	dir := flag.String("dir", "", "open a persistent database in this directory (created on first use)")
	walOn := flag.Bool("wal", false, "with -dir: commit through the write-ahead log (crash recovery on reopen; see \\set wal)")
	flag.Parse()

	opts := core.Options{Now: temporal.FromUnix(time.Now().UTC())}
	var db *core.Database
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tquel:", err)
			os.Exit(1)
		}
		opts.Dir, opts.WAL = *dir, *walOn
		var err error
		db, err = core.Open(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tquel:", err)
			os.Exit(1)
		}
		defer func() {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tquel: close:", err)
			}
		}()
	} else {
		if *walOn {
			fmt.Fprintln(os.Stderr, "tquel: -wal needs -dir: the log lives next to the data files")
			os.Exit(1)
		}
		db = core.MustOpen(opts)
	}
	sh := newShell(db)

	if flag.NArg() > 0 {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tquel:", err)
			os.Exit(1)
		}
		if err := runScript(sh.cur, string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "tquel:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("TQuel temporal DBMS shell. End statements with \\g or a blank line; \\q quits.")
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		name := ""
		if sh.curName != "default" {
			name = sh.curName
		}
		if buf.Len() == 0 {
			fmt.Printf("tquel%s> ", name)
		} else {
			fmt.Print("    -> ")
		}
	}
	run := func() {
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		if src == "" {
			return
		}
		if err := runScript(sh.cur, src); err != nil {
			fmt.Println("error:", err)
		}
	}

	for prompt(); in.Scan(); prompt() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\q`:
			return
		case trimmed == `\g` || trimmed == "":
			run()
		case trimmed == `\p`:
			fmt.Println(buf.String())
		case trimmed == `\plan`:
			plan, err := sh.cur.Explain(strings.TrimSpace(buf.String()))
			buf.Reset()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
		case trimmed == `\r`:
			buf.Reset()
			fmt.Println("(buffer cleared)")
		case trimmed == `\l`:
			for _, r := range db.Catalog().List() {
				pages, _ := db.NumPages(r)
				fmt.Printf("  %-24s %6d pages\n", r, pages)
			}
		case trimmed == `\sessions`:
			names := make([]string, 0, len(sh.sessions))
			for n := range sh.sessions {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				marker := " "
				if n == sh.curName {
					marker = "*"
				}
				c := sh.sessions[n]
				st := c.Stats()
				fmt.Printf("%s %-16s now=%s ranges=%d io=%d/%d\n",
					marker, n, temporal.Format(c.Now(), temporal.Second),
					c.NumRanges(), st.Reads+st.Hits, st.Writes)
			}
		case strings.HasPrefix(trimmed, `\session`):
			arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\session`))
			if arg == "" {
				fmt.Println("session:", sh.curName)
				continue
			}
			sh.use(arg)
			fmt.Printf("session: %s (now: %s)\n", sh.curName,
				temporal.Format(sh.now(), temporal.Second))
		case strings.HasPrefix(trimmed, `\set`):
			if err := sh.set(strings.TrimSpace(strings.TrimPrefix(trimmed, `\set`))); err != nil {
				fmt.Println("error:", err)
			}
		case trimmed == `\cold`:
			if err := db.InvalidateBuffers(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("(buffers invalidated)")
			}
		case strings.HasPrefix(trimmed, `\advance`):
			arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\advance`))
			secs, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				fmt.Println("usage: \\advance <seconds>")
				continue
			}
			sh.setNow(sh.now() + temporal.Time(secs))
			fmt.Println("now:", temporal.Format(sh.now(), temporal.Second))
		case strings.HasPrefix(trimmed, `\now`):
			arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\now`))
			if arg != "" {
				t, err := temporal.Parse(arg, sh.now())
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				sh.setNow(t)
			}
			fmt.Println("now:", temporal.Format(sh.now(), temporal.Second))
		default:
			buf.WriteString(line)
			buf.WriteString("\n")
		}
	}
	run()
}

// runScript executes statements one at a time in the given session,
// printing each result that carries rows or a tuple count.
func runScript(c *core.Conn, src string) error {
	stmts, err := tquel.ParseAll(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		res, err := c.ExecStmt(s)
		if err != nil {
			return err
		}
		if len(res.Cols) > 0 || res.Affected > 0 {
			fmt.Println(res)
		}
	}
	return nil
}
