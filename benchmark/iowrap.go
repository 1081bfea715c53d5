package main

import (
	"sync/atomic"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// ioStats counts and times the calls the engine makes on its storage files
// and its write-ahead log. The benchmark splices it in through
// core.Options.WrapFile/WrapLog, so the storage and wal layers are measured
// from outside the engine. Counters are atomic: the timed runs drive the
// database from two clients.
type ioStats struct {
	reads, writes, allocs atomic.Int64 // storage.File calls (ReadPages counts its pages)
	readNS, writeNS       atomic.Int64

	appends, appendBytes, appendNS atomic.Int64 // storage.Log WriteAt
	syncs, syncNS                  atomic.Int64

	// written is the log's high-water mark; synced is the length the last
	// completed Sync is known to cover — what survives a crash.
	written, synced atomic.Int64

	// log is the open log's wrapper. While skipSync is set its Sync returns
	// at once without reaching the file: durable_write's solo phase.
	log      *countingLog
	skipSync atomic.Bool

	// tr, when set, receives a span per call. Only the single-client traced
	// replay sets it.
	tr *tracer
}

// ioCounts is a plain copy of the counters, for deltas.
type ioCounts struct {
	reads, writes, allocs, readNS, writeNS        int64
	appends, appendBytes, appendNS, syncs, syncNS int64
}

func (s *ioStats) counts() ioCounts {
	return ioCounts{
		reads: s.reads.Load(), writes: s.writes.Load(), allocs: s.allocs.Load(),
		readNS: s.readNS.Load(), writeNS: s.writeNS.Load(),
		appends: s.appends.Load(), appendBytes: s.appendBytes.Load(), appendNS: s.appendNS.Load(),
		syncs: s.syncs.Load(), syncNS: s.syncNS.Load(),
	}
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		reads: c.reads - o.reads, writes: c.writes - o.writes, allocs: c.allocs - o.allocs,
		readNS: c.readNS - o.readNS, writeNS: c.writeNS - o.writeNS,
		appends: c.appends - o.appends, appendBytes: c.appendBytes - o.appendBytes, appendNS: c.appendNS - o.appendNS,
		syncs: c.syncs - o.syncs, syncNS: c.syncNS - o.syncNS,
	}
}

// timed runs fn as one call of a layer: a span when tracing, and n added to
// count and the elapsed time to ns either way.
func (s *ioStats) timed(name string, count, ns *atomic.Int64, n int64, fn func() error) error {
	id := s.tr.begin(name)
	t0 := time.Now()
	err := fn()
	ns.Add(int64(time.Since(t0)))
	s.tr.end(id)
	count.Add(n)
	return err
}

func (s *ioStats) wrapFile(_ string, f storage.File) storage.File {
	return &countingFile{File: f, io: s}
}

func (s *ioStats) wrapLog(_ string, l storage.Log) storage.Log {
	size, err := l.Size()
	if err != nil {
		size = 0 // an unreadable log fails in the engine's own Size call next
	}
	// What is on disk at open has survived; only later appends can be lost.
	s.written.Store(size)
	s.synced.Store(size)
	s.log = &countingLog{Log: l, io: s}
	return s.log
}

// countingFile is a storage.File that reports to an ioStats.
type countingFile struct {
	storage.File
	io *ioStats
}

func (f *countingFile) ReadPage(id page.ID, p *page.Page) error {
	return f.io.timed("storage.read", &f.io.reads, &f.io.readNS, 1, func() error {
		return f.File.ReadPage(id, p)
	})
}

func (f *countingFile) ReadPages(id page.ID, ps []page.Page) error {
	return f.io.timed("storage.read", &f.io.reads, &f.io.readNS, int64(len(ps)), func() error {
		return f.File.ReadPages(id, ps)
	})
}

func (f *countingFile) WritePage(id page.ID, p *page.Page) error {
	return f.io.timed("storage.write", &f.io.writes, &f.io.writeNS, 1, func() error {
		return f.File.WritePage(id, p)
	})
}

func (f *countingFile) Allocate() (page.ID, error) {
	var id page.ID
	err := f.io.timed("storage.alloc", &f.io.allocs, &f.io.writeNS, 1, func() error {
		var err error
		id, err = f.File.Allocate()
		return err
	})
	return id, err
}

// countingLog is a storage.Log that reports to an ioStats and tracks how
// much of the log a crash would keep.
type countingLog struct {
	storage.Log
	io *ioStats
}

func (l *countingLog) WriteAt(b []byte, off int64) (int, error) {
	var n int
	err := l.io.timed("wal.append", &l.io.appends, &l.io.appendNS, 1, func() error {
		var err error
		n, err = l.Log.WriteAt(b, off)
		return err
	})
	l.io.appendBytes.Add(int64(n))
	storeMax(&l.io.written, off+int64(n))
	return n, err
}

func (l *countingLog) Sync() error {
	if l.io.skipSync.Load() {
		return nil
	}
	// Bytes written while the sync is in flight may miss it, so the sync is
	// credited only with what was written before it began.
	covered := l.io.written.Load()
	id := l.io.tr.begin("wal.sync")
	t0 := time.Now()
	err := l.Log.Sync()
	l.io.syncNS.Add(int64(time.Since(t0)))
	l.io.tr.end(id)
	l.io.syncs.Add(1)
	if err == nil {
		storeMax(&l.io.synced, covered)
	}
	return err
}

func (l *countingLog) Truncate(size int64) error {
	err := l.Log.Truncate(size)
	if err == nil {
		l.io.written.Store(size)
		if l.io.synced.Load() > size {
			l.io.synced.Store(size)
		}
	}
	return err
}

func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}
