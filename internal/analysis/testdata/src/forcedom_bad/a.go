// Package forcedom_bad seeds the five crash-ordering bug shapes PR 8's
// crash-point sweep found dynamically, one per §8.1 contract, plus an
// interprocedural and a skipped-force variant.  Every shape must be
// reported.
package forcedom_bad

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

// Txn mirrors the transaction type the -recv flag roots rule 1 on.
type Txn struct {
	log *wal.Log
	obj *lob.Object
	s   *Store

	pending    *lob.ReplacePlan
	pendingLSN int64
}

// Replace is shape 1 (PR 8: unforced pre-images): the update record is
// appended but never forced before the in-place overwrite.
func (t *Txn) Replace(off int64, p []byte) error {
	if _, err := t.log.Append(wal.Record{Type: wal.RecUpdate}); err != nil {
		return err
	}
	return t.obj.Replace(off, p) // want "in-place overwrite Object.Replace is not dominated by a WAL force"
}

// ReplaceVia is shape 1 across a call: the overwrite hides in a
// helper, so only the interprocedural summary can see it.
func (t *Txn) ReplaceVia(off int64, p []byte) error {
	if _, err := t.log.Append(wal.Record{Type: wal.RecUpdate}); err != nil {
		return err
	}
	return t.applyReplace(off, p) // want "call can overwrite previously-forced object state in place before a WAL force .*applyReplace"
}

func (t *Txn) applyReplace(off int64, p []byte) error {
	return t.obj.Replace(off, p)
}

// ReplaceMaybe is shape 1 with a skipped force: the force exists but
// the fast path goes around it, so it does not dominate the overwrite.
func (t *Txn) ReplaceMaybe(off int64, p []byte, fast bool) error {
	if _, err := t.log.Append(wal.Record{Type: wal.RecUpdate}); err != nil {
		return err
	}
	if !fast {
		if err := t.log.Force(); err != nil {
			return err
		}
	}
	return t.obj.Replace(off, p) // want "in-place overwrite Object.Replace is not dominated by a WAL force"
}

// Read is shape 1 for a deferred replace: the operation that settles
// the pending plan reaches its home write through a helper that lost its
// force, so nothing guarantees the pre-image record is durable yet.
func (t *Txn) Read(off int64, p []byte) (int, error) {
	if err := t.settle(); err != nil { // want "call can overwrite previously-forced object state in place before a WAL force .*settle → ReplacePlan.Apply"
		return 0, err
	}
	return t.obj.Read(off, p)
}

func (t *Txn) settle() error {
	plan := t.pending
	t.pending = nil
	return plan.Apply()
}

// Checkpoint is shape 2 (PR 8: checkpoint ordering): the header and
// catalog reach disk before the data pages they index are forced.
func (s *Store) Checkpoint() error {
	if err := s.writeHeader(); err != nil { // want "checkpoint metadata write Store.writeHeader is not dominated by a device force"
		return err
	}
	if err := s.writeCatalog(); err != nil { // want "checkpoint metadata write Store.writeCatalog is not dominated by a device force"
		return err
	}
	return s.vol.ForceAll()
}

// Abort is shape 3 (PR 8: abort-before-compensation): the abort record
// is constructed and appended before compensations are durable.
func (t *Txn) Abort() error {
	rec := wal.Record{Type: wal.RecAbort} // want "abort-record construction .* is not dominated by a device force"
	if _, err := t.log.Append(rec); err != nil {
		return err
	}
	return t.s.vol.ForceAll()
}

// Release is shape 4 (PR 8: freed-extent reuse): extents return to the
// allocator without consulting the quarantine barrier.
func (s *Store) Release(start buddy.PageNum, n int) error {
	return s.buddy.Free(start, n) // want "freed-extent release Manager.Free is not dominated by a barrierDurable quarantine stamp"
}

// ReleaseStamped keeps the package quarantine-aware (rule 4 activates
// only where the barrier is operated) and shows the discharged shape.
func (s *Store) ReleaseStamped(start buddy.PageNum, n int) error {
	if s.barrierDurable.Load() == 0 {
		return nil
	}
	return s.buddy.Free(start, n)
}

// Save is shape 5 (SaveFile atomicity): the rename reaches a success
// exit with no owning-directory sync.
func Save(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil { // want "renamed file can vanish on crash"
		return err
	}
	return nil
}

// SaveVia leaves the rename open through a helper: the helper's
// rename-open summary propagates to the caller's success exit.
func SaveVia(tmp, path string) error {
	if err := renameOnly(tmp, path); err != nil { // want "call leaves a renamed file with no owning-directory sync .*renameOnly"
		return err
	}
	return nil
}

func renameOnly(tmp, path string) error {
	return os.Rename(tmp, path)
}
