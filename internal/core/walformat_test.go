package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/wal"
)

// frameRecord frames one log payload: length, CRC-32, payload.
func frameRecord(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestOpenRejectsUndoFormatLog writes, under a closed WAL database, a log
// in the retired steal/undo format: an image record whose flags byte
// announces a before-image ahead of the after-image, committed by an end
// record. Open must fail with the error naming that format, not discard
// the record as a torn tail and silently lose the committed work.
func TestOpenRejectsUndoFormatLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Now: epoch, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `create persistent interval emp (id = i4, v = i4)
	                 append to emp (id = 1, v = 0)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after page.Page
	before.Format(16, 0)
	after.Format(16, 0)
	const txn = 1
	img := []byte{1} // image record
	img = binary.LittleEndian.AppendUint64(img, txn)
	img = append(img, 1) // flags: before-image present
	img = binary.LittleEndian.AppendUint16(img, 3)
	img = append(img, "emp"...)
	img = binary.LittleEndian.AppendUint32(img, 0)
	img = append(img, before[:]...)
	img = append(img, after[:]...)
	end := binary.LittleEndian.AppendUint64([]byte{2}, txn)
	end = append(end, "{}"...)
	log := append(frameRecord(img), frameRecord(end)...)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir, WAL: true})
	if err == nil {
		_ = db.Close()
		t.Fatalf("Open replayed an undo-format log")
	}
	if !errors.Is(err, wal.ErrUndoFormat) || !strings.Contains(err.Error(), "steal/undo format") {
		t.Fatalf("Open of an undo-format log: %v, want wal.ErrUndoFormat naming the format", err)
	}
}
