package eos

import (
	"fmt"
	"io"

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
// checkpoint writes them.
//
// Structural updates (insert, delete, append, truncate, compact,
// destroy) committed after the capture are invisible.  Replace is the
// one in-place update in EOS, and a snapshot reads it read-committed: a
// transaction's replace stays in the transaction's memory until its
// commit record is forced, whatever the transaction does with the bytes
// meanwhile, and an aborted one is never seen.  Once committed, a
// replace over a snapshotted range is visible, page-atomic (a read never
// sees a torn page, but a multi-page replace may be observed partially
// applied).  The non-transactional Object.Replace has no commit: it is
// visible as it writes.
//
// A Snapshot is safe for concurrent use by multiple goroutines except
// for the Read/Seek cursor, which is single-user; use ReadAt for
// concurrent positioned reads.  Snapshots MUST be closed: an open
// snapshot pins its epoch and holds every page retired since it was
// opened out of the free space.
type Snapshot struct {
	s    *Store
	name string
	v    *lob.RootVersion
	g    *txn.EpochGuard
	pos  int64
}

// OpenSnapshot captures the object's newest committed version and
// returns a lock-free reader over it.  The epoch pin is taken before
// the version is captured, so any pages retired by updates that
// supersede the captured version are stamped at or after the pin and
// stay allocated until the snapshot closes.
func (s *Store) OpenSnapshot(name string) (*Snapshot, error) {
	g := s.epochs.Enter()
	s.mu.Lock()
	e, ok := s.catalog[name]
	s.mu.Unlock()
	if !ok {
		g.Exit()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	v := e.obj.Published()
	if v == nil {
		g.Exit()
		return nil, fmt.Errorf("%w: %q has no committed version", ErrNotFound, name)
	}
	return &Snapshot{s: s, name: name, v: v, g: g}, nil
}

// Name returns the name the snapshot was opened under.
func (sn *Snapshot) Name() string { return sn.name }

// Size returns the snapshotted object length in bytes.
func (sn *Snapshot) Size() int64 { return sn.v.Size() }

// LSN returns the log sequence number of the captured version.
func (sn *Snapshot) LSN() uint64 { return sn.v.LSN() }

// Seq returns the captured version's publish sequence number.
func (sn *Snapshot) Seq() uint64 { return sn.v.Seq() }

// ReadAt fills buf from byte off of the captured version.  It returns
// io.EOF with a short count when off+len(buf) passes the snapshot's
// size, matching io.ReaderAt.
func (sn *Snapshot) ReadAt(buf []byte, off int64) (int, error) {
	if sn.g == nil {
		return 0, fmt.Errorf("eos: snapshot of %q is closed", sn.name)
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", lob.ErrOutOfBounds, off)
	}
	size := sn.v.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := len(buf)
	var eof bool
	if off+int64(n) > size {
		n = int(size - off)
		eof = true
	}
	if err := sn.v.ReadAt(buf[:n], off); err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// Read reads from the snapshot's cursor, implementing io.Reader.
func (sn *Snapshot) Read(p []byte) (int, error) {
	n, err := sn.ReadAt(p, sn.pos)
	sn.pos += int64(n)
	return n, err
}

// Seek repositions the cursor, implementing io.Seeker.
func (sn *Snapshot) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = sn.pos
	case io.SeekEnd:
		base = sn.v.Size()
	default:
		return 0, fmt.Errorf("eos: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: seek to %d", lob.ErrOutOfBounds, pos)
	}
	sn.pos = pos
	return pos, nil
}

// WriteTo streams the rest of the snapshot (from the cursor) to w,
// segment by segment, implementing io.WriterTo.
func (sn *Snapshot) WriteTo(w io.Writer) (int64, error) {
	if sn.g == nil {
		return 0, fmt.Errorf("eos: snapshot of %q is closed", sn.name)
	}
	var written int64
	size := sn.v.Size()
	for sn.pos < size {
		start, segLen, err := sn.v.SegmentRangeAt(sn.pos)
		if err != nil {
			return written, err
		}
		n := start + segLen - sn.pos
		buf := make([]byte, n)
		if err := sn.v.ReadAt(buf, sn.pos); err != nil {
			return written, err
		}
		wn, err := w.Write(buf)
		written += int64(wn)
		sn.pos += int64(wn)
		if err != nil {
			return written, err
		}
	}
	return written, nil
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
	sn.s.mu.Lock()
	e, ok := sn.s.catalog[sn.name]
	sn.s.mu.Unlock()
	if !ok {
		g2.Exit()
		return fmt.Errorf("%w: %q", ErrNotFound, sn.name)
	}
	v := e.obj.Published()
	if v == nil {
		g2.Exit()
		return fmt.Errorf("%w: %q has no committed version", ErrNotFound, sn.name)
	}
	old := sn.g
	sn.v, sn.g = v, g2
	if sn.pos > v.Size() {
		sn.pos = v.Size()
	}
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
