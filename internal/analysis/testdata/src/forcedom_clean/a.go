// Package forcedom_clean mirrors the fixed tree: every §8.1 ordering
// is discharged — directly, through a may-force helper, or through a
// justified eoslint:ignore — so the analyzer must stay silent.
package forcedom_clean

import (
	"os"
	"sync/atomic"

	"buddy"
	"disk"
	"lob"
	"wal"
)

// Store mirrors the engine root: checkpoint meta writers, the backing
// volume and log, and the quarantine barrier stamp.
type Store struct {
	vol            *disk.FileVolume
	log            *wal.Log
	buddy          *buddy.Manager
	barrierDurable atomic.Uint64
}

func (s *Store) appendImage() (int64, error) { return 0, nil }
func (s *Store) writeMaster() error          { return nil }

// Txn mirrors the transaction type.
type Txn struct {
	log *wal.Log
	obj *lob.Object
	s   *Store

	lm *lob.Manager
	// through: the transaction wrote pages its records name by reference.
	through bool
}

// forceData forces the data volume when the transaction wrote through:
// the force is conditional inside, but the call dominates the commit
// record, which is what the data-before-commit rule checks.
func (t *Txn) forceData() error {
	if !t.through {
		return nil
	}
	return t.s.vol.ForceAll()
}

// Replace forces the pre-image record before the in-place overwrite
// (the PR 8 fix shape).
func (t *Txn) Replace(off int64, p []byte) error {
	lsn, err := t.log.Append(wal.Record{Type: wal.RecUpdate})
	if err != nil {
		return err
	}
	if err := t.log.ForceLSN(lsn); err != nil {
		return err
	}
	return t.obj.Replace(off, p)
}

// ReplaceVia discharges through a helper on the force side and
// overwrites through a helper on the mutate side: both directions of
// the interprocedural summary.
func (t *Txn) ReplaceVia(off int64, p []byte) error {
	if _, err := t.log.Append(wal.Record{Type: wal.RecUpdate}); err != nil {
		return err
	}
	if err := t.forceTail(); err != nil {
		return err
	}
	return t.applyReplace(off, p)
}

func (t *Txn) forceTail() error { return t.log.Force() }

func (t *Txn) applyReplace(off int64, p []byte) error {
	return t.obj.Replace(off, p)
}

// ReplaceDeferred logs the replace and holds its page images, writing
// nothing; Read sees them without a write; Commit hands them to the
// write-behind set behind the commit record's force.
func (t *Txn) ReplaceDeferred(off int64, p []byte) error {
	plan, err := t.obj.PrepareReplace(off, p, nil)
	if err != nil {
		return err
	}
	if _, err := t.log.Append(wal.Record{Type: wal.RecUpdate}); err != nil {
		return err
	}
	plan.Hold()
	return nil
}

func (t *Txn) Read(off int64, p []byte) (int, error) {
	return t.obj.Read(off, p)
}

// Commit forces the pages its records name by reference — when it wrote
// any through —, then appends its record and forces it, and only then hands
// its held pages to the write-behind set.
func (t *Txn) Commit() error {
	if err := t.forceData(); err != nil {
		return err
	}
	lsn, err := t.log.Append(wal.Record{Type: wal.RecCommit})
	if err != nil {
		return err
	}
	if err := t.log.ForceLSN(lsn); err != nil {
		return err
	}
	return t.lm.PendHeld()
}

// Checkpoint is the two-phase barrier: force data pages, log the image
// and force it, write the master record and force it, then publish the
// quarantine stamp.
func (s *Store) Checkpoint() error {
	if err := s.vol.ForceAllExcept(nil); err != nil {
		return err
	}
	lsn, err := s.appendImage()
	if err != nil {
		return err
	}
	if err := s.log.ForceLSN(lsn); err != nil {
		return err
	}
	if err := s.writeMaster(); err != nil {
		return err
	}
	if err := s.vol.Force(0, 1); err != nil {
		return err
	}
	s.barrierDurable.Store(1)
	return nil
}

// Abort compensates and then forces its abort record, and nothing else.
// The undo replays pre-images whose own records were forced when they
// were written, which rule 1 cannot see — the justified ignore stops the
// exposure at its source instead of propagating it to every caller.
func (t *Txn) Abort() error {
	if err := t.undo(); err != nil {
		return err
	}
	rec := wal.Record{Type: wal.RecAbort}
	if _, err := t.log.Append(rec); err != nil {
		return err
	}
	return t.log.Force()
}

func (t *Txn) undo() error {
	//eoslint:ignore forcedom -- undo replays pre-images whose update records were forced before the original overwrite
	return t.obj.Replace(0, nil)
}

// Release consults the quarantine barrier before returning extents.
func (s *Store) Release(start buddy.PageNum, n int) error {
	if s.barrierDurable.Load() == 0 {
		return nil
	}
	return s.buddy.Free(start, n)
}

// Save is the temp+rename+dirsync pattern of an atomic save: the
// directory sync covers the success exit, and the failure return is
// exempt.
func Save(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return disk.SyncDir(".")
}

// SaveVia sees no open rename through Save's summary.
func SaveVia(tmp, path string) error {
	return Save(tmp, path)
}
