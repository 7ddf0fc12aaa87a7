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
// place by updates; everything BELOW the root is an on-disk page that
// shadowing never overwrites.  Reclamation of the superseded pages is
// the caller's business: EOS retires freed runs into an epoch manager
// and returns them to the buddy system only when no published root
// that names them can still be held by a reader.

// RootVersion is one published, committed version of an object.  It is
// immutable and safe for concurrent use by any number of readers.
type RootVersion struct {
	m    *Manager
	root *node
	size int64
	lsn  uint64
	seq  uint64
	prev *RootVersion // next-older retained version, nil at the tail
}

// Publish atomically installs the object's current state as its newest
// committed version, retaining up to keep older versions for readers
// that want to pin a slightly stale root.  The caller must hold the
// same exclusion it holds for reading the root (the object latch or a
// committed transaction's exclusive lock), and must call Publish
// BEFORE the pages the superseded version referenced can be freed.
func (o *Object) Publish(keep int) {
	v := &RootVersion{
		m:    o.m,
		root: &node{level: o.root.level, entries: append([]entry(nil), o.root.entries...)},
		size: o.size,
		lsn:  o.lsn.Load(),
	}
	if old := o.published.Load(); old != nil {
		v.seq = old.seq + 1
		v.prev = old
		cut := v
		for i := 0; i < keep && cut.prev != nil; i++ {
			cut = cut.prev
		}
		cut.prev = nil
	}
	o.published.Store(v)
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

// Prev returns the next-older retained version, or nil.
func (v *RootVersion) Prev() *RootVersion { return v.prev }

// ReadAt reads len(buf) bytes starting at byte off of the version.  It
// takes no locks: the version's tree is immutable, and the caller's
// epoch pin keeps its pages from being reused.
func (v *RootVersion) ReadAt(buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > v.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+int64(len(buf)), v.size)
	}
	v.m.st.snapshotReads.Add(1)
	return v.m.readRange(v.root, buf, off, nil)
}

// Read returns n bytes starting at off of the version.
func (v *RootVersion) Read(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if err := v.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// SegmentRangeAt reports the logical byte range [start, start+n) of the
// version's leaf segment containing byte off, for segment-at-a-time
// streaming.
func (v *RootVersion) SegmentRangeAt(off int64) (start, n int64, err error) {
	if off < 0 || off >= v.size {
		return 0, 0, fmt.Errorf("%w: byte %d of %d", ErrOutOfBounds, off, v.size)
	}
	nd := v.root
	var base int64
	for {
		i, childStart := nd.childIndex(off - base)
		e := nd.entries[i]
		if nd.level == 1 {
			return base + childStart, e.bytes, nil
		}
		base += childStart
		nd, err = v.m.readNode(e.ptr)
		if err != nil {
			return 0, 0, err
		}
	}
}
