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
// volume, and the quarantine barrier stamp.
type Store struct {
	vol            *disk.FileVolume
	buddy          *buddy.Manager
	barrierDurable atomic.Uint64
}

func (s *Store) writeHeader() error  { return nil }
func (s *Store) writeCatalog() error { return nil }

// forceDurable is the force helper: callers discharge their device
// obligations through its may-force summary.
func (s *Store) forceDurable() error {
	return s.vol.ForceAllExcept(nil)
}

// Txn mirrors the transaction type.
type Txn struct {
	log *wal.Log
	obj *lob.Object
	s   *Store

	pending    *lob.ReplacePlan
	pendingLSN int64
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

// ReplaceDeferred logs the replace and leaves the home write pending;
// Read and Commit reach it only through applyPending, which keeps the
// force next to the write, so every path to Apply passes a force.
func (t *Txn) ReplaceDeferred(off int64, p []byte) error {
	plan, err := t.obj.PrepareReplace(off, p, nil)
	if err != nil {
		return err
	}
	lsn, err := t.log.Append(wal.Record{Type: wal.RecUpdate})
	if err != nil {
		return err
	}
	t.pending, t.pendingLSN = plan, lsn
	return nil
}

func (t *Txn) Read(off int64, p []byte) (int, error) {
	if err := t.applyPending(); err != nil {
		return 0, err
	}
	return t.obj.Read(off, p)
}

func (t *Txn) Commit() error {
	lsn, err := t.log.Append(wal.Record{Type: wal.RecCommit})
	if err != nil {
		return err
	}
	if err := t.log.ForceLSN(lsn); err != nil {
		return err
	}
	return t.applyPending()
}

func (t *Txn) applyPending() error {
	if t.pending == nil {
		return nil
	}
	if err := t.log.ForceLSN(t.pendingLSN); err != nil {
		return err
	}
	plan := t.pending
	t.pending = nil
	return plan.Apply()
}

// Checkpoint is the two-phase barrier: force data pages, write the
// header and catalog, force them, then publish the quarantine stamp.
func (s *Store) Checkpoint() error {
	if err := s.vol.ForceAllExcept(nil); err != nil {
		return err
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	if err := s.writeCatalog(); err != nil {
		return err
	}
	if err := s.vol.Force(0, 1); err != nil {
		return err
	}
	s.barrierDurable.Store(1)
	return nil
}

// Abort makes compensations durable through the force helper before
// the abort record exists.  The undo itself replays pre-images whose
// own records were forced when they were written, which rule 1 cannot
// see — the justified ignore stops the exposure at its source instead
// of propagating it to every caller.
func (t *Txn) Abort() error {
	if err := t.undo(); err != nil {
		return err
	}
	if err := t.s.forceDurable(); err != nil {
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

// Save is the temp+rename+dirsync pattern of disk.SaveFile: the
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
