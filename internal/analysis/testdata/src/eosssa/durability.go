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
// (unexported appendImage/writeMaster on a type named Store,
// same package) has a subject.
type Store struct {
	barrierDurable atomic.Uint64
}

func (s *Store) appendImage() (int64, error) { return 0, nil }
func (s *Store) writeMaster() error          { return nil }

// durability exercises every v4 durability-event kind in one function;
// the ssa probe asserts each classification.
func durability(t *Txn, v *disk.FileVolume, d disk.Device, m *buddy.Manager, s *Store, lm *lob.Manager) {
	t.log.Force()
	t.log.ForceLSN(7)
	v.ForceAll()
	d.Force(0, 1)
	disk.SyncDir(".")
	os.Rename("a", "b")
	s.appendImage()
	s.writeMaster()
	m.Free(0, 1)
	s.barrierDurable.Store(1)
	_ = s.barrierDurable.Load()
	t.log.Append(wal.Record{Type: wal.RecCommit})
	lm.PendHeld()
}
