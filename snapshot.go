package eos

import (
	"fmt"

	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
)

// Snapshot is a lock-free read-only view of one object's last committed
// version at the moment OpenSnapshot was called.  Reads through a
// Snapshot never touch the object latch or the transaction lock table:
// shadowing makes the captured root the name of an immutable tree, and
// the snapshot's epoch pin keeps the pages that tree references from
// being reused until Close.  The last pages of a tail may not be on the
// device yet: the version reads them from the write-behind set until a
// checkpoint writes them.  A Reader and Object.Read read the same way, but
// each call the newest version: a Snapshot is the one that keeps its own.
//
// Structural updates (insert, delete, append, truncate, compact,
// destroy) committed after the capture are invisible.  Replace is the
// one in-place update in EOS, and a snapshot reads it read-committed: a
// transaction's replace stays in the transaction's memory until its
// commit record is forced, whatever the transaction does with the bytes
// meanwhile, and an aborted one is never seen.  Once committed, a
// replace over a snapshotted range is visible, page-atomic (a read never
// sees a torn page, but a multi-page replace may be observed partially
// applied).  An Object Replace is visible from its commit point on, as
// every Object write is.
//
// A Snapshot is safe for concurrent use by multiple goroutines except
// for the Read/Seek cursor, which is single-user; use ReadAt for
// concurrent positioned reads.  Snapshots MUST be closed: an open
// snapshot pins its epoch and holds every page retired since it was
// opened out of the free space.
type Snapshot struct {
	stream
	s    *Store
	name string
	v    *lob.RootVersion
	g    *txn.EpochGuard
}

// OpenSnapshot captures the object's newest committed version and
// returns a lock-free reader over it.  The epoch pin is taken before
// the version is captured, so any pages retired by updates that
// supersede the captured version are stamped at or after the pin and
// stay allocated until the snapshot closes.
func (s *Store) OpenSnapshot(name string) (*Snapshot, error) {
	g := s.epochs.Enter()
	v, err := s.newestVersion(name)
	if err != nil {
		g.Exit()
		return nil, err
	}
	sn := &Snapshot{s: s, name: name, v: v, g: g}
	sn.src = sn
	return sn, nil
}

// newestVersion returns the newest published version of the object named
// name.  The caller has pinned the epoch.
func (s *Store) newestVersion(name string) (*lob.RootVersion, error) {
	o, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	return o.version()
}

// Name returns the name the snapshot was opened under.
func (sn *Snapshot) Name() string { return sn.name }

// Size returns the snapshotted object length in bytes.
func (sn *Snapshot) Size() int64 { return sn.v.Size() }

// LSN returns the log sequence number of the captured version.
func (sn *Snapshot) LSN() uint64 { return sn.v.LSN() }

// Seq returns the captured version's publish sequence number.
func (sn *Snapshot) Seq() uint64 { return sn.v.Seq() }

// readAt reads the captured version, which the snapshot's pin keeps.
func (sn *Snapshot) readAt(p []byte, off int64) (int, error) {
	if sn.g == nil {
		return 0, fmt.Errorf("eos: snapshot of %q is closed", sn.name)
	}
	return readVersion(sn.v, p, off)
}

// Refresh re-captures the object's newest committed version without
// dropping snapshot protection in between: a new epoch pin is taken
// first, then the current version is loaded, and only then is the old
// pin released.  Pages retired by any update that superseded the new
// capture are stamped at or after one of the two pins, so the refreshed
// view is safe even mid-swap.  The cursor is clamped to the new size.
func (sn *Snapshot) Refresh() error {
	if sn.g == nil {
		return fmt.Errorf("eos: snapshot of %q is closed", sn.name)
	}
	g2 := sn.s.epochs.Enter()
	v, err := sn.s.newestVersion(sn.name)
	if err != nil {
		g2.Exit()
		return err
	}
	old := sn.g
	sn.v, sn.g = v, g2
	sn.pos = min(sn.pos, v.Size())
	old.Exit()
	return nil
}

// Close releases the snapshot's epoch pin, letting pages retired while
// it was open return to the free space.  Close is idempotent.
func (sn *Snapshot) Close() error {
	if sn.g == nil {
		return nil
	}
	sn.g.Exit()
	sn.g = nil
	return nil
}
