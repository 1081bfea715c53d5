package am_test

import (
	"encoding/binary"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/faultfs"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// TestRangeWalkPropagatesReadError runs an unordered file's range probe — a
// filtered scan — over a fault-injected file and requires the walk to pass
// the error through, not absorb it while looking for the next in-range
// tuple.
func TestRangeWalkPropagatesReadError(t *testing.T) {
	mem := storage.NewMem()
	buf := buffer.New("r", mem)
	key := am.Key{Offset: 0, Width: 4}
	f := heapfile.NewKeyed(buf, 16, key)
	for id := int32(1); id <= 200; id++ {
		tup := make([]byte, 16)
		binary.LittleEndian.PutUint32(tup, uint32(id))
		if _, err := f.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}

	sched := faultfs.MustParse("r:read@2")
	fbuf := buffer.New("r", sched.Wrap("r", mem))
	it := heapfile.NewKeyed(fbuf, 16, key).ProbeRange(150, 160)
	err := am.Each(it, func(page.RID, []byte) error { return nil })
	if err == nil {
		t.Fatal("range probe ended without surfacing the injected read error")
	}
	if !faultfs.IsInjected(err) {
		t.Fatalf("walk returned a non-injected error: %v", err)
	}
}
