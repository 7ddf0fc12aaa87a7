package lob

import "fmt"

// Versioned root publish for lock-free snapshot reads.
//
// Shadowing (§4.5) makes every committed root the name of an immutable
// tree: insert, delete and append write fresh index and data pages, so
// the pages a committed root references are never overwritten by later
// structural updates (replace is the one in-place update, and it is
// page-atomic).  A RootVersion captures one such root — a deep copy of
// the root node's entries plus the size and LSN that go with it — in a
// single atomically published value, so a reader can pick it up with
// one atomic load and read through it without the object latch.
//
// The entries are copied because the live root node is spliced in
// place by updates; everything BELOW the root is a page that shadowing
// never overwrites — on the device, or in the write-behind set
// (pending.go) until it is written, which every manager over the volume
// shares: a reader finds a page there while it is pending and on the device
// once it is written.  Reclamation of the superseded pages
// is the caller's business: EOS retires freed runs into an epoch manager
// and returns them to the buddy system only when no published root
// that names them can still be held by a reader.

// RootVersion is one published, committed version of an object.  It is
// immutable and safe for concurrent use by any number of readers.
type RootVersion struct {
	m     *Manager
	root  node // held by value: one allocation a version
	size  int64
	lsn   uint64
	seq   uint64
	split *windowReads // the object's boundary seeks (policy.go)
}

// Publish atomically installs the object's current state as its
// committed version, the one every reader captures from then on.  The
// caller must hold the same exclusion it holds for reading the root (the
// object latch or a committed transaction's exclusive lock), and must call
// Publish BEFORE the pages the superseded version referenced can be freed.
func (o *Object) Publish() { o.publish() }

// publish is Publish, returning the version it installed.  The version
// reads through the manager o's was derived from: a write scope's held
// pages are not committed bytes.
func (o *Object) publish() *RootVersion {
	m := o.m
	if m.base != nil {
		m = m.base
	}
	v := &RootVersion{
		m:     m,
		root:  node{level: o.root.level, entries: append([]entry(nil), o.root.entries...)},
		size:  o.size,
		lsn:   o.lsn.Load(),
		split: &o.split,
	}
	if old := o.published.Load(); old != nil {
		v.seq = old.seq + 1
	}
	o.published.Store(v)
	return v
}

// Published returns the newest published version, or nil if the object
// has never been published (e.g. it was created by a transaction that
// has not committed).
func (o *Object) Published() *RootVersion { return o.published.Load() }

// Size returns the version's object length in bytes.
func (v *RootVersion) Size() int64 { return v.size }

// LSN returns the log sequence number the version was published at.
func (v *RootVersion) LSN() uint64 { return v.lsn }

// Seq returns the version's publish sequence number (monotonic per
// object).
func (v *RootVersion) Seq() uint64 { return v.seq }

// ReadAt reads len(buf) bytes starting at byte off of the version.  It
// takes no locks: the version's tree is immutable, and the caller's
// epoch pin keeps its pages from being reused.
func (v *RootVersion) ReadAt(buf []byte, off int64) error {
	if err := v.checkRange(off, int64(len(buf))); err != nil {
		return err
	}
	v.m.st.snapshotReads.Add(1)
	return v.m.readRange(&v.root, buf, off, nil, v.split)
}

// checkRange validates [off, off+n) against the version's bounds.
func (v *RootVersion) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > v.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, v.size)
	}
	return nil
}

// Read returns n bytes starting at off of the version; a range past the
// version's end fails before anything is allocated.
func (v *RootVersion) Read(off, n int64) ([]byte, error) {
	if err := v.checkRange(off, n); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := v.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
