// Package forcedom_bad seeds the four crash-ordering bug shapes PR 8's
// crash-point sweep found dynamically, one per §8.1 contract, plus an
// interprocedural and a skipped-force variant and the unforced image of a
// master record.  Every shape must be reported.
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
// volume and log, and the quarantine barrier stamp.
type Store struct {
	vol            *disk.FileVolume
	log            *wal.Log
	buddy          *buddy.Manager
	barrierDurable atomic.Uint64
}

func (s *Store) appendImage() (int64, error) { return 0, nil }
func (s *Store) writeMaster() error          { return nil }

// Txn mirrors the transaction type the -recv flag roots rule 1 on.
type Txn struct {
	log *wal.Log
	obj *lob.Object
	s   *Store

	lm *lob.Manager
	// through: the transaction wrote pages its records name by reference.
	through bool
}

// forceData forces the pages the transaction wrote through, if any.
func (t *Txn) forceData() error {
	if !t.through {
		return nil
	}
	return t.s.vol.ForceAll()
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

// Commit is shape 1 for a committed replace: its held page images enter
// the write-behind set before the commit record is forced, so a checkpoint
// may write them home while nothing durable says the transaction committed.
func (t *Txn) Commit() error {
	if err := t.forceData(); err != nil {
		return err
	}
	lsn, err := t.log.Append(wal.Record{Type: wal.RecCommit})
	if err != nil {
		return err
	}
	if err := t.lm.PendHeld(); err != nil { // want "in-place overwrite Manager.PendHeld is not dominated by a WAL force"
		return err
	}
	return t.log.ForceLSN(lsn)
}

// CommitVia is the same shape across a call: the pages enter the set in a
// helper, ahead of the force.
func (t *Txn) CommitVia() error {
	if err := t.forceData(); err != nil {
		return err
	}
	lsn, err := t.log.Append(wal.Record{Type: wal.RecCommit})
	if err != nil {
		return err
	}
	if err := t.pend(); err != nil { // want "call can overwrite previously-forced object state in place before a WAL force .*pend → Manager.PendHeld"
		return err
	}
	return t.log.ForceLSN(lsn)
}

func (t *Txn) pend() error { return t.lm.PendHeld() }

// CommitBeforeData is shape 5 (data before commit): the commit record
// enters the log buffer before the pages its records name by reference are
// forced, and another committer's log force may make it durable first.
func (t *Txn) CommitBeforeData() error {
	lsn, err := t.log.Append(wal.Record{Type: wal.RecCommit}) // want "commit record append Log.Append is not dominated by a device force"
	if err != nil {
		return err
	}
	if err := t.forceData(); err != nil {
		return err
	}
	return t.log.ForceLSN(lsn)
}

// CommitRecordVia is shape 5 across a call: the commit record is appended
// in a helper, and the data force comes behind it.
func (t *Txn) CommitRecordVia() error {
	lsn, err := t.appendCommit() // want "call can append a commit record before a device force .*appendCommit"
	if err != nil {
		return err
	}
	if err := t.forceData(); err != nil {
		return err
	}
	return t.log.ForceLSN(lsn)
}

func (t *Txn) appendCommit() (int64, error) {
	return t.log.Append(wal.Record{Type: wal.RecCommit})
}

// Checkpoint is shape 2 (checkpoint ordering): the image and the
// master record go out before the data pages they index are forced.
func (s *Store) Checkpoint() error {
	if err := s.log.Force(); err != nil {
		return err
	}
	if _, err := s.appendImage(); err != nil { // want "checkpoint metadata write Store.appendImage is not dominated by a device force"
		return err
	}
	if err := s.writeMaster(); err != nil { // want "checkpoint metadata write Store.writeMaster is not dominated by a device force" "master record write Store.writeMaster is not dominated by a WAL force behind the image append"
		return err
	}
	return s.vol.ForceAll()
}

// CheckpointUnforcedImage is shape 2's other half: the data is forced, and
// the log before the image, but the master record names an image no force
// has made durable.
func (s *Store) CheckpointUnforcedImage() error {
	if err := s.log.Force(); err != nil {
		return err
	}
	if err := s.vol.ForceAll(); err != nil {
		return err
	}
	if _, err := s.appendImage(); err != nil {
		return err
	}
	return s.writeMaster() // want "master record write Store.writeMaster is not dominated by a WAL force behind the image append"
}

// Release is shape 3 (PR 8: freed-extent reuse): extents return to the
// allocator without consulting the quarantine barrier.
func (s *Store) Release(start buddy.PageNum, n int) error {
	return s.buddy.Free(start, n) // want "freed-extent release Manager.Free is not dominated by a barrierDurable quarantine stamp"
}

// ReleaseStamped keeps the package quarantine-aware (rule 3 activates
// only where the barrier is operated) and shows the discharged shape.
func (s *Store) ReleaseStamped(start buddy.PageNum, n int) error {
	if s.barrierDurable.Load() == 0 {
		return nil
	}
	return s.buddy.Free(start, n)
}

// Save is shape 4 (rename atomicity): the rename reaches a success
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
