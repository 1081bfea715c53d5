// Package faultfs provides a deterministic fault-injecting wrapper around
// storage.File for the differential and crash-consistency tests. A Schedule
// — written in a small DSL or derived from a seed — names the exact
// operation to sabotage ("the 3rd write on relation temporal_h"), and the
// wrapper injects the failure exactly once, recording what it did.
//
// Schedule DSL:
//
//	schedule := rule (";" rule)*
//	rule     := target ":" op "@" n [":" mode]
//	target   := relation name (case-insensitive) | "*"
//	op       := "read" | "write" | "alloc" | "sync"
//	n        := 1-based count of that op on that target
//	mode     := "fail" (default) | "short" | "torn" | "enospc"
//
// Example: "temporal_h:write@3:torn; *:read@10" fails the third write on
// temporal_h by persisting a torn page, and the tenth read anywhere.
//
// Fault modes:
//
//   - fail:   the operation returns an error; nothing reaches the file.
//   - short:  (writes only) the first 128 bytes of the new page image are
//     persisted over the old page — a short write(2) — then an error
//     is returned.
//   - torn:   (writes only) the first 512 bytes of the new image land, the
//     back half keeps the old content — a page torn at the sector
//     boundary — then an error is returned.
//   - enospc: the operation fails with ErrNoSpace, nothing is persisted.
//
// Every injected error wraps ErrInjected, so tests can assert that a
// failure observed at the query layer is the scheduled one and not a
// genuine I/O problem. The op counters live on the Schedule keyed by
// relation name, so a file that is closed and reopened (modify rebuilds)
// keeps counting where it left off.
//
// faultfs is test infrastructure: tdbvet's layering check forbids importing
// it from production code (anything other than _test.go files and
// internal/difftest).
package faultfs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// Op is the class of file operation a rule targets.
type Op string

// Operation classes. A ReadPages batch counts as one read, matching the
// buffer manager's ReadOps metric; Close counts as the sync point.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
	OpAlloc Op = "alloc"
	OpSync  Op = "sync"
)

// Mode is how a matched operation fails.
type Mode string

// Fault modes.
const (
	ModeFail   Mode = "fail"
	ModeShort  Mode = "short"
	ModeTorn   Mode = "torn"
	ModeENOSPC Mode = "enospc"
)

// ErrInjected is wrapped by every error the wrapper injects.
var ErrInjected = errors.New("injected fault")

// ErrNoSpace is the no-space condition the enospc mode simulates. It wraps
// ErrInjected so a single errors.Is(err, ErrInjected) covers it too.
var ErrNoSpace = fmt.Errorf("no space left on device: %w", ErrInjected)

// IsInjected reports whether err stems from an injected fault, through any
// number of wrapping layers.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// shortBytes and tornBytes are how much of the new page image a short or
// torn write persists before failing; the rest keeps the old content.
const (
	shortBytes = 128
	tornBytes  = page.Size / 2
)

// rule is one parsed schedule entry.
type rule struct {
	target string // lower-cased relation name, or "*"
	op     Op
	n      int // 1-based op count on the target
	mode   Mode
	fired  bool
}

// Fault records one injected failure.
type Fault struct {
	Rel  string
	Op   Op
	N    int
	Mode Mode
}

// String renders the fault in the DSL's rule syntax.
func (f Fault) String() string {
	return fmt.Sprintf("%s:%s@%d:%s", f.Rel, f.Op, f.N, f.Mode)
}

// Schedule is a set of one-shot fault rules plus the per-relation operation
// counters they are matched against. One Schedule may wrap many files; it
// is safe for concurrent use.
type Schedule struct {
	mu    sync.Mutex
	rules []rule
	count map[string]map[Op]int
	log   []Fault
}

// Parse builds a schedule from the DSL described in the package comment.
func Parse(dsl string) (*Schedule, error) {
	s := &Schedule{count: map[string]map[Op]int{}}
	for _, part := range strings.Split(dsl, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("faultfs: rule %q: want target:op@n[:mode]", part)
		}
		target := strings.ToLower(strings.TrimSpace(fields[0]))
		if target == "" {
			return nil, fmt.Errorf("faultfs: rule %q: empty target", part)
		}
		opN := strings.SplitN(strings.TrimSpace(fields[1]), "@", 2)
		if len(opN) != 2 {
			return nil, fmt.Errorf("faultfs: rule %q: op needs @n", part)
		}
		op := Op(strings.ToLower(opN[0]))
		switch op {
		case OpRead, OpWrite, OpAlloc, OpSync:
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown op %q", part, opN[0])
		}
		n, err := strconv.Atoi(opN[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("faultfs: rule %q: bad count %q", part, opN[1])
		}
		mode := ModeFail
		if len(fields) == 3 {
			mode = Mode(strings.ToLower(strings.TrimSpace(fields[2])))
			switch mode {
			case ModeFail, ModeShort, ModeTorn, ModeENOSPC:
			default:
				return nil, fmt.Errorf("faultfs: rule %q: unknown mode %q", part, fields[2])
			}
		}
		if (mode == ModeShort || mode == ModeTorn) && op != OpWrite {
			return nil, fmt.Errorf("faultfs: rule %q: mode %s applies to writes only", part, mode)
		}
		s.rules = append(s.rules, rule{target: target, op: op, n: n, mode: mode})
	}
	return s, nil
}

// MustParse is Parse for literal schedules in tests.
func MustParse(dsl string) *Schedule {
	s, err := Parse(dsl)
	if err != nil {
		panic(err)
	}
	return s
}

// Random derives a deterministic schedule from a seed: one rule per listed
// relation, with op, count (1..maxN), and mode drawn from a splitmix64
// stream. The same (seed, rels, maxN) always yields the same schedule —
// the seeded face of the DSL.
func Random(seed int64, rels []string, maxN int) *Schedule {
	if maxN < 1 {
		maxN = 1
	}
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	ops := []Op{OpRead, OpWrite, OpAlloc}
	var rules []string
	for _, rel := range rels {
		op := ops[next()%uint64(len(ops))]
		n := int(next()%uint64(maxN)) + 1
		mode := ModeFail
		if op == OpWrite {
			mode = []Mode{ModeFail, ModeShort, ModeTorn, ModeENOSPC}[next()%4]
		} else if op == OpAlloc && next()%2 == 0 {
			mode = ModeENOSPC
		}
		rules = append(rules, fmt.Sprintf("%s:%s@%d:%s", rel, op, n, mode))
	}
	return MustParse(strings.Join(rules, ";"))
}

// String renders the schedule back in DSL form (fired rules included).
func (s *Schedule) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := make([]string, len(s.rules))
	for i, r := range s.rules {
		parts[i] = fmt.Sprintf("%s:%s@%d:%s", r.target, r.op, r.n, r.mode)
	}
	return strings.Join(parts, ";")
}

// Injected returns the faults injected so far, in injection order.
func (s *Schedule) Injected() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Fault, len(s.log))
	copy(out, s.log)
	return out
}

// match counts one operation on name and returns the fault to inject, if
// any rule's moment has come.
func (s *Schedule) match(name string, op Op) (Mode, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if s.count[key] == nil {
		s.count[key] = map[Op]int{}
	}
	s.count[key][op]++
	n := s.count[key][op]
	for i := range s.rules {
		r := &s.rules[i]
		if r.fired || r.op != op || r.n != n {
			continue
		}
		if r.target != "*" && r.target != key {
			continue
		}
		r.fired = true
		s.log = append(s.log, Fault{Rel: key, Op: op, N: n, Mode: r.mode})
		base := ErrInjected
		if r.mode == ModeENOSPC {
			base = ErrNoSpace
		}
		return r.mode, fmt.Errorf("faultfs: %s %s op %d on %q: %w", r.mode, op, n, name, base)
	}
	return "", nil
}

// Wrap returns f with this schedule's faults injected. name should be the
// relation (or index file) name the engine uses, so rules can target it.
func (s *Schedule) Wrap(name string, f storage.File) storage.File {
	return &File{name: name, inner: f, sched: s}
}

// File is a fault-injecting storage.File.
type File struct {
	name  string
	inner storage.File
	sched *Schedule
}

// Inner returns the wrapped file.
func (f *File) Inner() storage.File { return f.inner }

// ReadPage implements storage.File.
func (f *File) ReadPage(id page.ID, p *page.Page) error {
	if _, err := f.sched.match(f.name, OpRead); err != nil {
		return err
	}
	return f.inner.ReadPage(id, p)
}

// ReadPages implements storage.File; the batch counts as one read op,
// matching the buffer manager's ReadOps metric.
func (f *File) ReadPages(id page.ID, ps []page.Page) error {
	if _, err := f.sched.match(f.name, OpRead); err != nil {
		return err
	}
	return f.inner.ReadPages(id, ps)
}

// WritePage implements storage.File. Short and torn modes persist a
// partially-updated page image before failing, simulating a crash in the
// middle of a sector write.
func (f *File) WritePage(id page.ID, p *page.Page) error {
	mode, err := f.sched.match(f.name, OpWrite)
	if err != nil {
		if mode == ModeShort || mode == ModeTorn {
			keep := tornBytes
			if mode == ModeShort {
				keep = shortBytes
			}
			var old page.Page
			if rerr := f.inner.ReadPage(id, &old); rerr == nil {
				copy(old[:keep], p[:keep])
				// Best effort: the page is being corrupted on purpose, and
				// the injected error below is what the caller must see.
				_ = f.inner.WritePage(id, &old)
			}
		}
		return err
	}
	return f.inner.WritePage(id, p)
}

// WrapLog returns l with this schedule's faults injected, counted under
// name (the WAL uses "wal"). Log writes, reads, and syncs count as the
// corresponding ops; torn and short modes persist a prefix of the append
// — half of it, or 128 bytes — before failing, simulating a crash in the
// middle of a log append. The torn record is exactly what the recovery
// scanner's length+CRC framing must detect and discard.
func (s *Schedule) WrapLog(name string, l storage.Log) storage.Log {
	return &LogFile{name: name, inner: l, sched: s}
}

// LogFile is a fault-injecting storage.Log.
type LogFile struct {
	name  string
	inner storage.Log
	sched *Schedule
}

// Inner returns the wrapped log.
func (l *LogFile) Inner() storage.Log { return l.inner }

// WriteAt implements storage.Log.
func (l *LogFile) WriteAt(b []byte, off int64) (int, error) {
	mode, err := l.sched.match(l.name, OpWrite)
	if err != nil {
		if mode == ModeShort || mode == ModeTorn {
			keep := len(b) / 2
			if mode == ModeShort && keep > shortBytes {
				keep = shortBytes
			}
			// Best effort: a torn tail is the point; the caller sees the
			// injected error and must not advance its logical tail.
			_, _ = l.inner.WriteAt(b[:keep], off) //tdbvet:ignore errcheck the injected error is being returned; the prefix write is the fault being modeled
		}
		return 0, err
	}
	return l.inner.WriteAt(b, off)
}

// ReadAt implements storage.Log.
func (l *LogFile) ReadAt(b []byte, off int64) (int, error) {
	if _, err := l.sched.match(l.name, OpRead); err != nil {
		return 0, err
	}
	return l.inner.ReadAt(b, off)
}

// Size implements storage.Log.
func (l *LogFile) Size() (int64, error) { return l.inner.Size() }

// Sync implements storage.Log.
func (l *LogFile) Sync() error {
	if _, err := l.sched.match(l.name, OpSync); err != nil {
		return err
	}
	return l.inner.Sync()
}

// Truncate implements storage.Log.
func (l *LogFile) Truncate(size int64) error { return l.inner.Truncate(size) }

// Close implements storage.Log. Like File.Close, a sync fault fails the
// close without closing the inner log, so a retry can succeed.
func (l *LogFile) Close() error {
	if _, err := l.sched.match(l.name, OpSync); err != nil {
		return err
	}
	return l.inner.Close()
}

// Allocate implements storage.File.
func (f *File) Allocate() (page.ID, error) {
	if _, err := f.sched.match(f.name, OpAlloc); err != nil {
		return page.Nil, err
	}
	return f.inner.Allocate()
}

// NumPages implements storage.File.
func (f *File) NumPages() int { return f.inner.NumPages() }

// Truncate implements storage.File.
func (f *File) Truncate() error { return f.inner.Truncate() }

// Close implements storage.File. A sync fault fails the close without
// closing the inner file, so a retry can succeed (the fault is one-shot).
func (f *File) Close() error {
	if _, err := f.sched.match(f.name, OpSync); err != nil {
		return err
	}
	return f.inner.Close()
}
