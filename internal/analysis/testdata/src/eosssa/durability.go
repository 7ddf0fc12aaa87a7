package eosssa

import (
	"os"
	"sync/atomic"

	"buddy"
	"disk"
	"lob"
	"wal"
)

// Store mirrors the engine root type so the meta-write classification
// (unexported writeHeader/writeCatalog on a type named Store, same
// package) has a subject.
type Store struct {
	barrierDurable atomic.Uint64
}

func (s *Store) writeHeader() error  { return nil }
func (s *Store) writeCatalog() error { return nil }

// durability exercises every v4 durability-event kind in one function;
// the ssa probe asserts each classification.
func durability(t *Txn, v *disk.FileVolume, d disk.Device, m *buddy.Manager, s *Store, plan *lob.ReplacePlan) {
	t.log.Force()
	t.log.ForceLSN(7)
	v.ForceAll()
	d.Force(0, 1)
	disk.SyncDir(".")
	os.Rename("a", "b")
	s.writeHeader()
	s.writeCatalog()
	m.Free(0, 1)
	s.barrierDurable.Store(1)
	_ = s.barrierDurable.Load()
	rec := wal.Record{Type: wal.RecAbort}
	t.log.Append(rec)
	_ = wal.Record{Type: wal.RecCommit} // not an abort record: stays unclassified
	plan.Apply()
}
